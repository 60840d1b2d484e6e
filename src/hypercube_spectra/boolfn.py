"""Truth tables of functions f:{-1,+1}^n -> {-1,+1} and named families.

Bit conventions, fixed across the package:

* Coordinates are labelled 1..n.  Input index i in [0, 2^n) encodes the
  point x with x_k = +1 when bit (k-1) of i is 0 and x_k = -1 when that
  bit is 1.
* The truth table is a 2^n-bit integer; bit i is 1 iff f = -1 at the
  point encoded by i.
* The text form is lowercase hex with ceil(2^n / 4) digits, little-endian
  by input index: bit i of the table is bit (i mod 4) of hex digit
  (i div 4).  The dimension n is not recoverable from the digits and
  travels separately.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import reduce
import numpy as np

MAX_N = 24

_HEX_DIGITS = re.compile("[0-9a-fA-F]*")
_INTEGER = re.compile("-?[0-9]+")


def parse_int(text: str) -> int:
    """An integer written as an optional '-' and ASCII digits, nothing else.

    int() alone would also take "_", "+", surrounding whitespace and
    non-ASCII digits, so "1_1" would read as 11.
    """
    if not _INTEGER.fullmatch(text):
        raise ValueError(f"invalid integer {text!r}")
    return int(text)


def _check_dim(n: int) -> None:
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError("dimension n must be an int")
    if not 1 <= n <= MAX_N:
        raise ValueError(f"dimension n must be in [1, {MAX_N}], got {n}")


@dataclass(frozen=True)
class BooleanFunction:
    """A function {-1,+1}^n -> {-1,+1} stored as a packed truth table."""

    n: int
    table: int

    def __post_init__(self) -> None:
        _check_dim(self.n)
        if not isinstance(self.table, int) or isinstance(self.table, bool):
            raise ValueError("truth table must be an int")
        if not 0 <= self.table < (1 << (1 << self.n)):
            raise ValueError(f"truth table out of range for n={self.n}")

    @property
    def size(self) -> int:
        return 1 << self.n

    def bits(self) -> np.ndarray:
        """Truth table as a uint8 array of 0/1 sign bits (1 means f = -1)."""
        raw = self.table.to_bytes((self.size + 7) // 8, "little")
        return np.unpackbits(np.frombuffer(raw, np.uint8), bitorder="little")[: self.size]

    def values(self) -> np.ndarray:
        """Truth table as an int64 array of +-1 values, indexed by input index."""
        return np.subtract(1, self.bits() << 1, dtype=np.int64)

    def is_constant(self) -> bool:
        return self.table == 0 or self.table == (1 << self.size) - 1

    def to_hex(self) -> str:
        width = (self.size + 3) // 4
        return format(self.table, f"0{width}x")[::-1]  # digit 0 first

    @classmethod
    def from_hex(cls, n: int, text: str) -> BooleanFunction:
        _check_dim(n)
        width = ((1 << n) + 3) // 4
        if len(text) != width:
            raise ValueError(
                f"truth-table hex for n={n} must have exactly {width} digits, got {len(text)}"
            )
        # int(text, 16) alone would also take "_", a sign, whitespace and
        # non-ASCII digits.
        if not _HEX_DIGITS.fullmatch(text):
            raise ValueError(f"invalid hex digits in truth table: {text!r}")
        return cls(n, int(text[::-1], 16))


def from_sign_bits(bits: np.ndarray) -> BooleanFunction:
    """Build a function from a 0/1 sign-bit array of length 2^n (1 means -1)."""
    size = len(bits)
    n = size.bit_length() - 1
    if size != 1 << n:
        raise ValueError("bit array length must be a power of two")
    _check_dim(n)
    packed = np.packbits(np.asarray(bits, dtype=np.uint8), bitorder="little")
    return BooleanFunction(n, int.from_bytes(packed.tobytes(), "little"))


@dataclass(frozen=True)
class FamilySpec:
    """A named family instance, e.g. parity:s=3,n=5."""

    name: str
    params: dict[str, int | str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.name not in _FAMILIES:
            raise ValueError(f"unknown family {self.name!r}; known: {', '.join(_FAMILIES)}")

    @classmethod
    def parse(cls, text: str) -> FamilySpec:
        name, _, rest = text.partition(":")
        params: dict[str, int | str] = {}
        if rest:
            for piece in rest.split(","):
                key, eq, val = piece.partition("=")
                if not eq or not key:
                    raise ValueError(f"malformed family parameter {piece!r}")
                if key in params:
                    raise ValueError(f"family parameter {key!r} is given twice")
                if key == "fallback":
                    params[key] = val
                else:
                    try:
                        params[key] = parse_int(val)
                    except ValueError:
                        raise ValueError(
                            f"family parameter {key!r} must be an integer, got {val!r}"
                        ) from None
        return cls(name, params)

    def text(self) -> str:
        if not self.params:
            return self.name
        inner = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.name}:{inner}"


def _index(n: int) -> np.ndarray:
    return np.arange(1 << n, dtype=np.int64)


def parity(s: int, n: int | None = None) -> BooleanFunction:
    """x_1 x_2 ... x_s embedded in n coordinates (n defaults to s)."""
    if n is None:
        n = s
    _check_dim(n)
    if not 1 <= s <= n:
        raise ValueError(f"parity needs 1 <= s <= n, got s={s}, n={n}")
    mask = (1 << s) - 1
    bits = (np.bitwise_count(_index(n) & mask) & 1).astype(np.uint8)
    return from_sign_bits(bits)


def dictator(n: int, k: int = 1) -> BooleanFunction:
    """f(x) = x_k."""
    _check_dim(n)
    if not 1 <= k <= n:
        raise ValueError(f"dictator coordinate k={k} out of range for n={n}")
    bits = ((_index(n) >> (k - 1)) & 1).astype(np.uint8)
    return from_sign_bits(bits)


def and_function(n: int) -> BooleanFunction:
    """+1 exactly when every coordinate is +1."""
    _check_dim(n)
    bits = (_index(n) != 0).astype(np.uint8)
    return from_sign_bits(bits)


def majority(n: int) -> BooleanFunction:
    """Sign of the coordinate sum; n must be odd."""
    _check_dim(n)
    if n % 2 == 0:
        raise ValueError(f"majority needs odd n, got {n}")
    bits = (np.bitwise_count(_index(n)) > n // 2).astype(np.uint8)
    return from_sign_bits(bits)


def minblock(s: int, t: int) -> BooleanFunction:
    """Product over t blocks of size s of the block-minimum coordinate value."""
    if s < 1 or t < 1:
        raise ValueError("minblock needs s >= 1 and t >= 1")
    _check_dim(s * t)
    # The product of the block minima is the XOR of (block != 0).  Each outer
    # product puts one more block in the low bits; all blocks are alike.
    nonzero = (np.arange(1 << s) != 0).astype(np.uint8)
    return from_sign_bits(reduce(np.bitwise_xor.outer, [nonzero] * t).ravel())


def tribes(w: int, s: int) -> BooleanFunction:
    """OR of s disjoint ANDs of width w, with +1 meaning TRUE."""
    if w < 1 or s < 1:
        raise ValueError("tribes needs w >= 1 and s >= 1")
    _check_dim(w * s)
    # f = -1 iff every block is nonzero: the AND of (block != 0), as in minblock.
    nonzero = (np.arange(1 << w) != 0).astype(np.uint8)
    return from_sign_bits(reduce(np.multiply.outer, [nonzero] * s).ravel())


def first_even_group(s: int, t: int, fallback: str = "t") -> BooleanFunction:
    """(-1)^{p_0} where p_0 is the first of t size-s blocks with even parity.

    Even parity means an even number of -1 entries.  When every block has
    odd parity, p_0 falls back to t (default) or to n = s*t.
    """
    if s < 1 or t < 1:
        raise ValueError("first-even-group needs s >= 1 and t >= 1")
    if fallback not in ("t", "n"):
        raise ValueError(f"fallback must be 't' or 'n', got {fallback!r}")
    _check_dim(s * t)
    even = (np.bitwise_count(np.arange(1 << s)) & 1) == 0
    # Only p_0 mod 2 is kept.  From block t down to block 1, each block becomes
    # the new low bits and, where it is even, overrides the label above it.
    odd = np.array([(t if fallback == "t" else s * t) & 1], dtype=np.uint8)
    for p in range(t, 0, -1):
        odd = np.where(even, np.uint8(p & 1), odd[:, None]).ravel()
    return from_sign_bits(odd)


# name -> (builder, required keyword parameters, optional ones); the
# optional ones take the builder's own defaults.
_FAMILIES = {
    "parity": (parity, ("s",), ("n",)),
    "and": (and_function, ("n",), ()),
    "dictator": (dictator, ("n",), ("k",)),
    "majority": (majority, ("n",), ()),
    "minblock": (minblock, ("s", "t"), ()),
    "tribes": (tribes, ("w", "s"), ()),
    "first-even-group": (first_even_group, ("s", "t"), ("fallback",)),
}


def make_family(spec: FamilySpec) -> BooleanFunction:
    """Instantiate a parsed family spec."""
    builder, required, optional = _FAMILIES[spec.name]
    for key in required:
        if key not in spec.params:
            raise ValueError(f"family {spec.name!r} requires parameter {key!r}")
    extra = set(spec.params) - set(required) - set(optional)
    if extra:
        raise ValueError(f"family {spec.name!r} does not take {sorted(extra)}")
    return builder(**spec.params)
