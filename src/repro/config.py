"""Model architecture zoo and global constants.

This module holds Table II of the paper: the GPT-style transformer
architectures used in every performance experiment, together with helpers
for parameter counting.  The architectures are exact copies of the paper's
hyperparameters; sequence length and vocabulary size follow the GPT-3
family conventions used by Megatron-LM (sequence length 2048, vocabulary
51,200 after padding to a multiple of 1024).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = [
    "GPTConfig",
    "MODEL_ZOO",
    "get_model",
    "DEFAULT_SEQ_LEN",
    "DEFAULT_VOCAB_SIZE",
]

#: Sequence length used in all of the paper's performance experiments.
DEFAULT_SEQ_LEN = 2048

#: GPT-3 style padded vocabulary (51,200 = 50 * 1024).
DEFAULT_VOCAB_SIZE = 51200


@dataclass(frozen=True)
class GPTConfig:
    """Architecture of a GPT-style decoder-only transformer.

    Attributes mirror Table II of the paper.  ``nominal_params`` is the
    human-facing model size label (e.g. ``20e9`` for "GPT-20B"); the true
    parameter count is computed by :meth:`num_parameters`.
    """

    name: str
    num_layers: int
    hidden_size: int
    num_heads: int
    seq_len: int = DEFAULT_SEQ_LEN
    vocab_size: int = DEFAULT_VOCAB_SIZE
    nominal_params: float = 0.0
    #: MLP expansion factor; GPT-3 uses 4x.
    ffn_mult: int = 4

    def __post_init__(self) -> None:
        if self.hidden_size % self.num_heads != 0:
            raise ValueError(
                f"hidden_size {self.hidden_size} not divisible by "
                f"num_heads {self.num_heads}"
            )

    @property
    def head_dim(self) -> int:
        """Per-head feature dimension."""
        return self.hidden_size // self.num_heads

    @property
    def ffn_hidden(self) -> int:
        """Width of the MLP's inner layer."""
        return self.ffn_mult * self.hidden_size

    def num_parameters(self, include_embeddings: bool = True) -> int:
        """Exact trainable parameter count of the architecture.

        Per transformer layer: QKV projection ``3h^2 + 3h``, attention
        output projection ``h^2 + h``, MLP ``2 * (4h^2) + 5h``, and two
        LayerNorms ``4h``.  Embeddings add ``V*h`` (token) and ``s*h``
        (position); the final LayerNorm adds ``2h``.  The LM head shares
        the token embedding (GPT-2/3 convention).
        """
        h = self.hidden_size
        per_layer = (
            (3 * h * h + 3 * h)  # qkv
            + (h * h + h)  # attn out proj
            + (h * self.ffn_hidden + self.ffn_hidden)  # fc1
            + (self.ffn_hidden * h + h)  # fc2
            + 4 * h  # 2 layernorms (scale + shift)
        )
        total = self.num_layers * per_layer + 2 * h  # + final layernorm
        if include_embeddings:
            total += self.vocab_size * h + self.seq_len * h
        return total

    def scaled(self, **overrides) -> "GPTConfig":
        """Return a copy with some hyperparameters replaced."""
        return replace(self, **overrides)


def _zoo() -> dict[str, GPTConfig]:
    rows = [
        # name, params, layers, hidden, heads   (Table II)
        ("GPT-5B", 5e9, 24, 4096, 32),
        ("GPT-10B", 10e9, 32, 5120, 40),
        ("GPT-20B", 20e9, 32, 7168, 56),
        ("GPT-40B", 40e9, 38, 9216, 72),
        ("GPT-60B", 60e9, 56, 9216, 72),
        ("GPT-80B", 80e9, 42, 12288, 96),
        ("GPT-160B", 160e9, 84, 12288, 96),
        ("GPT-320B", 320e9, 96, 16384, 128),
        ("GPT-640B", 640e9, 192, 16384, 128),
    ]
    return {
        name: GPTConfig(
            name=name,
            num_layers=layers,
            hidden_size=hidden,
            num_heads=heads,
            nominal_params=params,
        )
        for name, params, layers, hidden, heads in rows
    }


#: Table II of the paper, keyed by model name.
MODEL_ZOO: dict[str, GPTConfig] = _zoo()


def get_model(name: str) -> GPTConfig:
    """Look up a Table II architecture by name (e.g. ``"GPT-20B"``).

    Accepts both ``"GPT-20B"`` and the shorthand ``"20B"``.
    """
    key = name if name.startswith("GPT-") else f"GPT-{name}"
    try:
        return MODEL_ZOO[key]
    except KeyError:
        raise KeyError(
            f"unknown model {name!r}; available: {sorted(MODEL_ZOO)}"
        ) from None
