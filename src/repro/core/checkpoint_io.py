"""Sharded checkpoint save/load, cross-grid resharding, and integrity.

A practical need of any distributed training framework: persist a
4D-parallel model's state and restore it — possibly onto a *different*
grid (job sizes change between allocations) or into the serial model
(for evaluation/export).  The canonical on-disk format is the *serial*
state dict (full unsharded arrays, NumPy ``.npz``): every grid can
gather to it and shard from it, so any grid can restore any other grid's
checkpoint, and the file doubles as a portable export.

The checkpoint is itself a failure domain, so every write here is
defended:

* **atomic writes** — bytes stream into a ``*.tmp`` sibling and land via
  ``os.replace``; a crash mid-write (the ``torn_write`` fault of
  :mod:`repro.runtime.faults`) tears the temporary file, never the
  checkpoint;
* **per-array CRC32 manifest** — every array's checksum/dtype/shape is
  recorded inside the file and re-verified on load
  (:func:`verify_checkpoint`), catching silent storage corruption (the
  ``corrupt_checkpoint`` fault) that an ordinary ``np.load`` may accept;
* **keep-last-K ring** — :class:`CheckpointRing` retains the K newest
  checkpoints and restores from the newest one that *verifies*,
  skipping corrupted files instead of dying on them.

Training state (fp32 masters + Adam moments + step clock) is saved in
two layouts: :func:`save_training_state` keeps the model's own (possibly
sharded) layout for bit-exact same-grid resume, while
:func:`gather_training_arrays` / :func:`load_training_arrays` produce
the serial-canonical form that any grid can restore — the substrate of
elastic shrink/grow recovery (:mod:`repro.core.elastic`).
"""

from __future__ import annotations

import json
import os
import zlib
from pathlib import Path

import numpy as np

from ..nn.transformer import GPT
from ..runtime.faults import CheckpointCorruptionError, get_active_injector
from ..telemetry.spans import get_tracer as _telemetry, traced as _traced
from .parallel_transformer import ParallelGPT

__all__ = [
    "save_checkpoint",
    "load_checkpoint",
    "save_training_state",
    "load_training_state",
    "gather_training_arrays",
    "load_training_arrays",
    "verify_checkpoint",
    "CheckpointRing",
    "MANIFEST_KEY",
]

#: npz entry holding the JSON integrity manifest.
MANIFEST_KEY = "__manifest__"


# -- integrity-defended npz I/O ----------------------------------------------


def _crc(arr: np.ndarray) -> int:
    return zlib.crc32(np.ascontiguousarray(arr).tobytes()) & 0xFFFFFFFF


@_traced(name="ckpt.save", cat="ckpt")
def _atomic_savez(
    path: Path,
    arrays: dict[str, np.ndarray],
    injector=None,
    atomic: bool = True,
) -> None:
    """Write ``arrays`` + CRC manifest to ``path`` via tmp + ``os.replace``.

    ``injector`` (default: the ambient :func:`fault_scope` injector)
    gets the checkpoint-fault hooks: a ``torn_write`` truncates the file
    being written and raises before the rename; a ``corrupt_checkpoint``
    silently flips a bit after a successful write.  ``atomic=False``
    writes in place — only for demonstrating why the tmp/replace
    protocol exists.
    """
    if injector is None:
        injector = get_active_injector()
    tel = _telemetry()
    if tel is not None:
        tel.metrics.counter("ckpt.saves").add(1)
        tel.metrics.counter("ckpt.bytes_written").add(
            sum(a.nbytes for a in arrays.values())
        )
    manifest = {
        name: [_crc(a), str(a.dtype), list(a.shape)]
        for name, a in arrays.items()
    }
    payload = dict(arrays)
    payload[MANIFEST_KEY] = np.asarray(json.dumps(manifest))
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    target = path.with_name(path.name + ".tmp") if atomic else path
    with open(target, "wb") as f:
        np.savez(f, **payload)
    idx = injector.next_checkpoint_save() if injector is not None else None
    if injector is not None:
        injector.check_torn_write(idx, target, path)  # may raise
    if atomic:
        os.replace(target, path)
    if injector is not None:
        injector.corrupt_checkpoint_file(idx, path)


@_traced(name="ckpt.verify", cat="ckpt")
def verify_checkpoint(path: str | Path) -> dict[str, np.ndarray]:
    """Load a checkpoint and verify its CRC32 manifest.

    Returns the arrays (manifest stripped) on success; raises
    :class:`~repro.runtime.faults.CheckpointCorruptionError` when the
    file is unreadable, the manifest is missing, the array inventory
    changed, or any array fails its checksum/dtype/shape check.
    """
    path = Path(path)
    try:
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
    except Exception as exc:  # torn zip, bad CRC inside the zip, ...
        raise CheckpointCorruptionError(str(path), f"unreadable ({exc})")
    raw = arrays.pop(MANIFEST_KEY, None)
    if raw is None:
        raise CheckpointCorruptionError(str(path), "integrity manifest missing")
    try:
        manifest = json.loads(str(raw))
    except Exception as exc:
        raise CheckpointCorruptionError(str(path), f"manifest unparsable ({exc})")
    if set(manifest) != set(arrays):
        missing = sorted(set(manifest) - set(arrays))
        extra = sorted(set(arrays) - set(manifest))
        raise CheckpointCorruptionError(
            str(path), f"array inventory mismatch (missing={missing}, extra={extra})"
        )
    for name, (crc, dtype, shape) in manifest.items():
        a = arrays[name]
        if str(a.dtype) != dtype or list(a.shape) != list(shape):
            raise CheckpointCorruptionError(
                str(path),
                f"{name}: recorded {dtype}{shape}, found {a.dtype}{list(a.shape)}",
            )
        if _crc(a) != crc:
            raise CheckpointCorruptionError(str(path), f"{name}: CRC32 mismatch")
    tel = _telemetry()
    if tel is not None:
        tel.metrics.counter("ckpt.reads").add(1)
        tel.metrics.counter("ckpt.bytes_read").add(
            sum(a.nbytes for a in arrays.values())
        )
    return arrays


# -- portable parameter checkpoints -------------------------------------------


def _serial_state(model: GPT | ParallelGPT) -> dict[str, np.ndarray]:
    if isinstance(model, ParallelGPT):
        return model.gather_state_to_serial().state_dict()
    return model.state_dict()


def save_checkpoint(
    model: GPT | ParallelGPT,
    path: str | Path,
    *,
    injector=None,
    atomic: bool = True,
) -> None:
    """Persist a model (serial or 4D-parallel) as a portable ``.npz``.

    Parallel models are gathered to the canonical serial layout first —
    the distributed analogue of a rank-0 consolidated save.  The write
    is atomic and carries the CRC manifest.
    """
    _atomic_savez(Path(path), _serial_state(model), injector, atomic)


def load_checkpoint(
    model: GPT | ParallelGPT, path: str | Path
) -> GPT | ParallelGPT:
    """Restore a checkpoint into ``model`` (sharding it if parallel).

    The checkpoint's architecture must match the model's; loading is
    strict (missing/unexpected keys raise).  The file is read once,
    through :func:`verify_checkpoint`: an unreadable file or one without
    a valid CRC manifest raises
    :class:`~repro.runtime.faults.CheckpointCorruptionError`.
    """
    state = verify_checkpoint(path)
    if isinstance(model, ParallelGPT):
        serial = GPT(model.cfg, seed=0)
        serial.load_state_dict(state)
        resharded = ParallelGPT.from_serial(serial, model.grid)
        _copy_parallel_state(resharded, model)
    else:
        model.load_state_dict(state)
    return model


def _copy_parallel_state(src: ParallelGPT, dst: ParallelGPT) -> None:
    """Copy all shard data between two same-grid parallel models."""
    src_params = dict(src.named_parameters())
    for name, p in dst.named_parameters():
        p.data = src_params[name].data.copy()


# -- layout-bound training state (same-grid bit-exact resume) ------------------


def _optimizer_slot_of(model, optimizer) -> dict[str, int]:
    """Map parameter *name* -> optimizer slot, by parameter identity.

    Moments must never be paired positionally against
    ``named_parameters()``: a reordered optimizer parameter list with
    coincidentally-equal shapes would silently mispair them.  Identity
    is the only correct join key.
    """
    params = dict(model.named_parameters())
    if len(optimizer.params) != len(params):
        raise ValueError(
            "optimizer does not cover exactly the model's parameters"
        )
    idx_of = {id(p): i for i, p in enumerate(optimizer.params)}
    slots = {}
    for name, p in params.items():
        i = idx_of.get(id(p))
        if i is None:
            raise ValueError(
                f"optimizer does not cover model parameter {name!r}"
            )
        slots[name] = i
    return slots


def save_training_state(
    model: GPT | ParallelGPT,
    optimizer,
    path: str | Path,
    *,
    injector=None,
    atomic: bool = True,
) -> None:
    """Persist model + AdamW optimizer state for bit-exact resume.

    Unlike :func:`save_checkpoint`, the layout is *not* canonicalized:
    optimizer moments are stored per parameter in the model's current
    (possibly sharded) layout, so the state can only be restored into a
    model with the same layout (serial -> serial, or the same grid).
    Cross-grid restarts go through :func:`gather_training_arrays` /
    :func:`load_training_arrays` (or, parameters only,
    :func:`save_checkpoint`).
    """
    slots = _optimizer_slot_of(model, optimizer)
    arrays: dict[str, np.ndarray] = {}
    for name, p in model.named_parameters():
        i = slots[name]
        arrays[f"param::{name}"] = p.data
        arrays[f"adam_m::{name}"] = optimizer._m[i]
        arrays[f"adam_v::{name}"] = optimizer._v[i]
    arrays["adam_t::"] = np.asarray(optimizer.t)
    _atomic_savez(Path(path), arrays, injector, atomic)


def load_training_state(
    model: GPT | ParallelGPT, optimizer, path: str | Path
) -> None:
    """Restore a :func:`save_training_state` checkpoint in place.

    The model's parameter names/shapes and the optimizer's parameter
    list must match the saved layout exactly; the file's CRC manifest is
    verified first.  Moment arrays are validated per name against the
    parameter's shape and routed to the optimizer slot by parameter
    identity, so a differently-ordered optimizer list restores
    correctly.
    """
    arrays = verify_checkpoint(path)
    slots = _optimizer_slot_of(model, optimizer)
    for name, p in model.named_parameters():
        for prefix in ("param", "adam_m", "adam_v"):
            key = f"{prefix}::{name}"
            if key not in arrays:
                raise KeyError(f"checkpoint missing {key}")
            if arrays[key].shape != p.data.shape:
                raise ValueError(
                    f"shape mismatch for {key}: checkpoint "
                    f"{arrays[key].shape} vs model {p.data.shape}"
                )
        i = slots[name]
        p.data = arrays[f"param::{name}"].copy()
        optimizer._m[i][...] = arrays[f"adam_m::{name}"]
        optimizer._v[i][...] = arrays[f"adam_v::{name}"]
    optimizer.t = int(arrays["adam_t::"])


# -- canonical (cross-grid) training state -------------------------------------


def _moment_state(model, optimizer, slots: dict[str, int], which: str) -> dict[str, np.ndarray]:
    """Serial-layout Adam moments, obtained by routing the moment arrays
    through the same gather path as the weights (swap data -> gather ->
    restore).  Pure copies/permutations, so the trip is bit-exact."""
    moments = optimizer._m if which == "m" else optimizer._v
    named = list(model.named_parameters())
    saved = [p.data for _, p in named]
    for name, p in named:
        p.data = moments[slots[name]]
    try:
        return _serial_state(model)
    finally:
        for (_, p), d in zip(named, saved):
            p.data = d


def gather_training_arrays(model: GPT | ParallelGPT, optimizer) -> dict[str, np.ndarray]:
    """Full training state in the serial-canonical layout.

    Parameters, Adam moments, and the step clock, all expressed over the
    serial model's parameter names — any grid (or the serial model) can
    restore it via :func:`load_training_arrays`.  This is the in-memory
    interchange format of elastic shrink/grow recovery; write it to disk
    through :class:`CheckpointRing`.
    """
    slots = _optimizer_slot_of(model, optimizer)
    pstate = _serial_state(model)
    mstate = _moment_state(model, optimizer, slots, "m")
    vstate = _moment_state(model, optimizer, slots, "v")
    arrays: dict[str, np.ndarray] = {}
    for name in pstate:
        arrays[f"param::{name}"] = pstate[name]
        arrays[f"adam_m::{name}"] = mstate[name]
        arrays[f"adam_v::{name}"] = vstate[name]
    arrays["adam_t::"] = np.asarray(optimizer.t)
    return arrays


def load_training_arrays(
    model: GPT | ParallelGPT, optimizer, arrays: dict[str, np.ndarray]
) -> None:
    """Restore :func:`gather_training_arrays` state onto any grid.

    Parameters shard through :meth:`ParallelGPT.from_serial`; moments
    ride the identical shard path (bit-exact), land in the optimizer
    slots matched by parameter identity, and the step clock is restored
    — after this, training continues exactly as if the model had always
    lived on this grid with this state.
    """
    names = sorted(
        k[len("param::"):] for k in arrays if k.startswith("param::")
    )
    slots = _optimizer_slot_of(model, optimizer)

    def serial_of(prefix: str) -> dict[str, np.ndarray]:
        missing = [n for n in names if f"{prefix}::{n}" not in arrays]
        if missing:
            raise KeyError(f"canonical state missing {prefix}:: for {missing}")
        return {n: arrays[f"{prefix}::{n}"] for n in names}

    if isinstance(model, ParallelGPT):
        carrier = GPT(model.cfg, seed=0)
        carrier.load_state_dict(serial_of("param"))
        _copy_parallel_state(ParallelGPT.from_serial(carrier, model.grid), model)
        for which in ("m", "v"):
            carrier.load_state_dict(serial_of(f"adam_{which}"))
            sharded = dict(
                ParallelGPT.from_serial(carrier, model.grid).named_parameters()
            )
            dst = optimizer._m if which == "m" else optimizer._v
            for name, p in model.named_parameters():
                dst[slots[name]][...] = sharded[name].data
    else:
        model.load_state_dict(serial_of("param"))
        for which in ("m", "v"):
            state = serial_of(f"adam_{which}")
            dst = optimizer._m if which == "m" else optimizer._v
            for name, p in model.named_parameters():
                if state[name].shape != p.data.shape:
                    raise ValueError(
                        f"shape mismatch for adam_{which}::{name}: "
                        f"{state[name].shape} vs {p.data.shape}"
                    )
                dst[slots[name]][...] = state[name]
    optimizer.t = int(arrays["adam_t::"])


# -- the keep-last-K checkpoint ring -------------------------------------------


class CheckpointRing:
    """A keep-last-K ring of canonical training-state checkpoints.

    Each :meth:`save` lands atomically as ``ckpt-<step>.npz`` (serial
    canonical layout — restorable onto any grid) and prunes beyond
    ``keep``.  Restoration walks newest -> oldest and uses the first
    checkpoint that passes :func:`verify_checkpoint`, so a torn or
    silently-corrupted newest checkpoint costs one interval of history,
    not the job.

    ``stats`` counts ``saves``, ``reads`` (verifying disk loads),
    ``skipped_corrupt``, and ``pruned``.
    """

    def __init__(self, directory: str | Path, keep: int = 3) -> None:
        if keep < 1:
            raise ValueError("keep must be >= 1")
        self.directory = Path(directory)
        self.keep = keep
        from collections import Counter

        self.stats = Counter()

    def path_for(self, step: int) -> Path:
        return self.directory / f"ckpt-{step:08d}.npz"

    def steps(self) -> list[int]:
        """Steps with a (possibly corrupt) checkpoint file, ascending."""
        if not self.directory.is_dir():
            return []
        out = []
        for p in self.directory.glob("ckpt-*.npz"):
            try:
                out.append(int(p.stem.split("-", 1)[1]))
            except ValueError:
                continue
        return sorted(out)

    def save(self, model, optimizer, step: int, *, injector=None) -> Path:
        """Checkpoint the full training state at ``step`` and prune."""
        arrays = gather_training_arrays(model, optimizer)
        path = self.path_for(step)
        _atomic_savez(path, arrays, injector)
        self.stats["saves"] += 1
        for old in self.steps()[: -self.keep]:
            self.path_for(old).unlink(missing_ok=True)
            self.stats["pruned"] += 1
        return path

    def latest_verifying(self) -> tuple[int, dict[str, np.ndarray]] | None:
        """Newest checkpoint that passes verification, as
        ``(step, arrays)`` — corrupted files are skipped (and counted),
        not fatal.  ``None`` when nothing in the ring verifies."""
        for step in reversed(self.steps()):
            try:
                arrays = verify_checkpoint(self.path_for(step))
            except CheckpointCorruptionError:
                self.stats["skipped_corrupt"] += 1
                continue
            self.stats["reads"] += 1
            return step, arrays
        return None

    def restore(self, model, optimizer) -> int:
        """Restore the newest verifying checkpoint into ``model`` /
        ``optimizer`` (any grid); returns its step."""
        found = self.latest_verifying()
        if found is None:
            raise CheckpointCorruptionError(
                str(self.directory), "no checkpoint in the ring verifies"
            )
        step, arrays = found
        load_training_arrays(model, optimizer, arrays)
        return step
