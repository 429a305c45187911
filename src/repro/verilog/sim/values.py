"""Four-state bit-vector values (0, 1, x, z) and their operators.

:class:`Vec4` is the value type flowing through the simulator.  A
vector of width *w* is stored as three integers:

* ``val``  — the known bit values (bits inside ``xz`` are forced to 0);
* ``xz``   — mask of bits whose state is x or z;
* ``z``    — mask of bits that are specifically z (subset of ``xz``).

This mirrors the aval/bval encoding used by the VPI and keeps all bit
operations O(1) Python integer ops regardless of width.

Operator semantics follow IEEE 1364-2005: x-propagation through
bitwise operators uses the standard truth tables (``0 & x == 0``,
``1 | x == 1``), arithmetic with any unknown bit yields an all-x
result, ``==``/``!=`` return x when the comparison is undecidable, and
``===``/``!==`` compare the four-state patterns exactly.  For every
operator, z operands behave as x.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple, Union


def _mask(width: int) -> int:
    return (1 << width) - 1


class Vec4:
    """An immutable four-state logic vector.

    Construct with :meth:`from_int`, :meth:`all_x`, :meth:`all_z`, or
    directly with the raw fields.  All operators return new vectors.
    """

    __slots__ = ("width", "val", "xz", "z", "signed")

    def __init__(
        self,
        width: int,
        val: int = 0,
        xz: int = 0,
        z: int = 0,
        signed: bool = False,
    ) -> None:
        if width <= 0:
            raise ValueError(f"vector width must be positive, got {width}")
        m = _mask(width)
        self.width = width
        self.xz = xz & m
        self.z = z & self.xz
        self.val = val & m & ~self.xz
        self.signed = signed

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_int(cls, value: int, width: int, signed: bool = False) -> "Vec4":
        """Build a fully-known vector from a Python int (two's complement)."""
        return cls(width, value & _mask(width), 0, 0, signed)

    @classmethod
    def all_x(cls, width: int, signed: bool = False) -> "Vec4":
        """A vector with every bit x."""
        m = _mask(width)
        return cls(width, 0, m, 0, signed)

    @classmethod
    def all_z(cls, width: int, signed: bool = False) -> "Vec4":
        """A vector with every bit z."""
        m = _mask(width)
        return cls(width, 0, m, m, signed)

    @classmethod
    def from_string(cls, text: str, signed: bool = False) -> "Vec4":
        """Build from a binary string like ``"10xz"`` (MSB first)."""
        width = len(text)
        if width == 0:
            raise ValueError("empty vector string")
        val = xz = z = 0
        for ch in text:
            val <<= 1
            xz <<= 1
            z <<= 1
            if ch == "1":
                val |= 1
            elif ch == "0":
                pass
            elif ch in "xX":
                xz |= 1
            elif ch in "zZ?":
                xz |= 1
                z |= 1
            else:
                raise ValueError(f"invalid bit character {ch!r}")
        return cls(width, val, xz, z, signed)

    # -- inspection ------------------------------------------------------------

    @property
    def has_unknown(self) -> bool:
        """True when any bit is x or z."""
        return self.xz != 0

    @property
    def is_fully_known(self) -> bool:
        return self.xz == 0

    def to_int(self) -> int:
        """Unsigned integer value; raises if any bit is unknown."""
        if self.xz:
            raise ValueError(f"vector {self} contains x/z bits")
        return self.val

    def to_signed_int(self) -> int:
        """Two's-complement signed integer value; raises on unknowns."""
        raw = self.to_int()
        sign_bit = 1 << (self.width - 1)
        if raw & sign_bit:
            return raw - (1 << self.width)
        return raw

    def to_int_or_none(self) -> Optional[int]:
        """Unsigned value, or None when any bit is unknown."""
        return None if self.xz else self.val

    def signed_value(self) -> Optional[int]:
        """Interpreted value honouring the signed flag, None if unknown."""
        if self.xz:
            return None
        return self.to_signed_int() if self.signed else self.val

    def bit(self, index: int) -> str:
        """Return the state of bit ``index`` as '0', '1', 'x', or 'z'."""
        if index < 0 or index >= self.width:
            return "x"
        b = 1 << index
        if self.xz & b:
            return "z" if self.z & b else "x"
        return "1" if self.val & b else "0"

    def to_bit_string(self) -> str:
        """MSB-first string of 0/1/x/z characters."""
        return "".join(self.bit(i) for i in range(self.width - 1, -1, -1))

    def __repr__(self) -> str:
        return f"Vec4({self.width}'b{self.to_bit_string()})"

    def __eq__(self, other: object) -> bool:
        """Structural equality (exact four-state pattern match)."""
        if not isinstance(other, Vec4):
            return NotImplemented
        return (
            self.width == other.width
            and self.val == other.val
            and self.xz == other.xz
            and self.z == other.z
        )

    def __hash__(self) -> int:
        return hash((self.width, self.val, self.xz, self.z))

    # -- resizing ------------------------------------------------------------

    def resize(self, width: int, signed: Optional[bool] = None) -> "Vec4":
        """Zero/sign/x-extend or truncate to ``width`` bits.

        Extension uses the sign bit when the vector is signed, and
        propagates an x/z sign bit into the extension (LRM semantics).
        """
        use_signed = self.signed if signed is None else signed
        if width == self.width:
            if use_signed == self.signed:
                return self
            return Vec4(width, self.val, self.xz, self.z, use_signed)
        if width < self.width:
            return Vec4(width, self.val, self.xz, self.z, use_signed)
        ext = _mask(width) & ~_mask(self.width)
        val, xz, z = self.val, self.xz, self.z
        top = 1 << (self.width - 1)
        if use_signed:
            if xz & top:
                xz |= ext
                if z & top:
                    z |= ext
            elif val & top:
                val |= ext
        return Vec4(width, val, xz, z, use_signed)

    def as_signed(self, signed: bool = True) -> "Vec4":
        """Return the vector with the signed flag set to ``signed``."""
        if signed == self.signed:
            return self
        return Vec4(self.width, self.val, self.xz, self.z, signed)

    # -- bitwise operators -------------------------------------------------

    def _binary_prep(self, other: "Vec4") -> Tuple["Vec4", "Vec4", int, bool]:
        """Widen both operands to the common width with proper extension."""
        width = max(self.width, other.width)
        signed = self.signed and other.signed
        return (
            self.resize(width, self.signed),
            other.resize(width, other.signed),
            width,
            signed,
        )

    def bit_and(self, other: "Vec4") -> "Vec4":
        a, b, width, signed = self._binary_prep(other)
        m = _mask(width)
        known0 = (~a.val & ~a.xz & m) | (~b.val & ~b.xz & m)
        known1 = a.val & b.val
        xz = m & ~known0 & ~known1
        return Vec4(width, known1, xz, 0, signed)

    def bit_or(self, other: "Vec4") -> "Vec4":
        a, b, width, signed = self._binary_prep(other)
        m = _mask(width)
        known1 = a.val | b.val
        known0 = (~a.val & ~a.xz & m) & (~b.val & ~b.xz & m)
        xz = m & ~known0 & ~known1
        return Vec4(width, known1 & ~xz, xz, 0, signed)

    def bit_xor(self, other: "Vec4") -> "Vec4":
        a, b, width, signed = self._binary_prep(other)
        xz = a.xz | b.xz
        return Vec4(width, (a.val ^ b.val) & ~xz, xz, 0, signed)

    def bit_xnor(self, other: "Vec4") -> "Vec4":
        return self.bit_xor(other).bit_not()

    def bit_not(self) -> "Vec4":
        m = _mask(self.width)
        return Vec4(self.width, ~self.val & ~self.xz & m, self.xz, 0, self.signed)

    # -- reductions ------------------------------------------------------------

    def reduce_and(self) -> "Vec4":
        m = _mask(self.width)
        if (~self.val & ~self.xz & m) != 0:
            return Vec4.from_int(0, 1)
        if self.xz:
            return Vec4.all_x(1)
        return Vec4.from_int(1, 1)

    def reduce_or(self) -> "Vec4":
        if self.val:
            return Vec4.from_int(1, 1)
        if self.xz:
            return Vec4.all_x(1)
        return Vec4.from_int(0, 1)

    def reduce_xor(self) -> "Vec4":
        if self.xz:
            return Vec4.all_x(1)
        return Vec4.from_int(bin(self.val).count("1") & 1, 1)

    def reduce_nand(self) -> "Vec4":
        return self.reduce_and().bit_not()

    def reduce_nor(self) -> "Vec4":
        return self.reduce_or().bit_not()

    def reduce_xnor(self) -> "Vec4":
        return self.reduce_xor().bit_not()

    # -- arithmetic ------------------------------------------------------------

    def _arith(self, other: "Vec4", result_width: Optional[int] = None):
        """Common prologue for arithmetic; returns ints or None if x."""
        a, b, width, signed = self._binary_prep(other)
        if result_width is not None:
            width = result_width
            a = a.resize(width, self.signed)
            b = b.resize(width, other.signed)
        if a.xz or b.xz:
            return None, None, width, signed
        av = a.to_signed_int() if signed else a.val
        bv = b.to_signed_int() if signed else b.val
        return av, bv, width, signed

    def add(self, other: "Vec4") -> "Vec4":
        av, bv, width, signed = self._arith(other)
        if av is None:
            return Vec4.all_x(width, signed)
        return Vec4.from_int(av + bv, width, signed)

    def sub(self, other: "Vec4") -> "Vec4":
        av, bv, width, signed = self._arith(other)
        if av is None:
            return Vec4.all_x(width, signed)
        return Vec4.from_int(av - bv, width, signed)

    def mul(self, other: "Vec4") -> "Vec4":
        av, bv, width, signed = self._arith(other)
        if av is None:
            return Vec4.all_x(width, signed)
        return Vec4.from_int(av * bv, width, signed)

    def div(self, other: "Vec4") -> "Vec4":
        av, bv, width, signed = self._arith(other)
        if av is None or bv == 0:
            return Vec4.all_x(width, signed)
        quotient = abs(av) // abs(bv)
        if (av < 0) != (bv < 0):
            quotient = -quotient
        return Vec4.from_int(quotient, width, signed)

    def mod(self, other: "Vec4") -> "Vec4":
        av, bv, width, signed = self._arith(other)
        if av is None or bv == 0:
            return Vec4.all_x(width, signed)
        remainder = abs(av) % abs(bv)
        if av < 0:
            remainder = -remainder
        return Vec4.from_int(remainder, width, signed)

    def power(self, other: "Vec4") -> "Vec4":
        av, bv, width, signed = self._arith(other)
        if av is None:
            return Vec4.all_x(width, signed)
        if bv < 0:
            if av in (1, -1):
                return Vec4.from_int(av if bv % 2 else av * av, width, signed)
            return Vec4.from_int(0, width, signed)
        try:
            return Vec4.from_int(pow(av, bv, 1 << width), width, signed)
        except ValueError:
            return Vec4.all_x(width, signed)

    def neg(self) -> "Vec4":
        if self.xz:
            return Vec4.all_x(self.width, self.signed)
        return Vec4.from_int(-self.val, self.width, self.signed)

    # -- shifts ------------------------------------------------------------

    def shl(self, amount: "Vec4") -> "Vec4":
        if amount.xz:
            return Vec4.all_x(self.width, self.signed)
        n = amount.val
        if n >= self.width:
            return Vec4.from_int(0, self.width, self.signed)
        return Vec4(
            self.width, self.val << n, self.xz << n, self.z << n, self.signed
        )

    def shr(self, amount: "Vec4") -> "Vec4":
        if amount.xz:
            return Vec4.all_x(self.width, self.signed)
        n = amount.val
        if n >= self.width:
            return Vec4.from_int(0, self.width, self.signed)
        return Vec4(
            self.width, self.val >> n, self.xz >> n, self.z >> n, self.signed
        )

    def ashr(self, amount: "Vec4") -> "Vec4":
        """Arithmetic right shift; sign-fills only when signed."""
        if not self.signed:
            return self.shr(amount)
        if amount.xz:
            return Vec4.all_x(self.width, self.signed)
        n = min(amount.val, self.width)
        m = _mask(self.width)
        top = 1 << (self.width - 1)
        fill = m & ~_mask(max(self.width - n, 0))
        val, xz, z = self.val >> n, self.xz >> n, self.z >> n
        if self.xz & top:
            xz |= fill
            if self.z & top:
                z |= fill
        elif self.val & top:
            val |= fill
        return Vec4(self.width, val, xz, z, self.signed)

    # -- comparisons -----------------------------------------------------------

    def _compare_values(self, other: "Vec4"):
        a, b, _, signed = self._binary_prep(other)
        if a.xz or b.xz:
            return None, None
        if signed:
            return a.to_signed_int(), b.to_signed_int()
        return a.val, b.val

    def eq(self, other: "Vec4") -> "Vec4":
        """Logical equality ``==``; x when undecidable."""
        a, b, width, _ = self._binary_prep(other)
        known = _mask(width) & ~a.xz & ~b.xz
        if (a.val ^ b.val) & known:
            return Vec4.from_int(0, 1)
        if a.xz or b.xz:
            return Vec4.all_x(1)
        return Vec4.from_int(1, 1)

    def ne(self, other: "Vec4") -> "Vec4":
        return self.eq(other).logical_not()

    def case_eq(self, other: "Vec4") -> "Vec4":
        """Case equality ``===``: exact four-state pattern match."""
        a, b, _, _ = self._binary_prep(other)
        same = a.val == b.val and a.xz == b.xz and a.z == b.z
        return Vec4.from_int(1 if same else 0, 1)

    def case_ne(self, other: "Vec4") -> "Vec4":
        inverted = self.case_eq(other)
        return Vec4.from_int(1 - inverted.val, 1)

    def lt(self, other: "Vec4") -> "Vec4":
        av, bv = self._compare_values(other)
        if av is None:
            return Vec4.all_x(1)
        return Vec4.from_int(1 if av < bv else 0, 1)

    def le(self, other: "Vec4") -> "Vec4":
        av, bv = self._compare_values(other)
        if av is None:
            return Vec4.all_x(1)
        return Vec4.from_int(1 if av <= bv else 0, 1)

    def gt(self, other: "Vec4") -> "Vec4":
        av, bv = self._compare_values(other)
        if av is None:
            return Vec4.all_x(1)
        return Vec4.from_int(1 if av > bv else 0, 1)

    def ge(self, other: "Vec4") -> "Vec4":
        av, bv = self._compare_values(other)
        if av is None:
            return Vec4.all_x(1)
        return Vec4.from_int(1 if av >= bv else 0, 1)

    # -- logical (truthiness) ----------------------------------------------

    def truthiness(self) -> Optional[bool]:
        """Verilog truth value: True, False, or None for unknown.

        A value is true when any bit is known-1, false when all bits are
        known-0, and unknown otherwise.
        """
        if self.val:
            return True
        if self.xz:
            return None
        return False

    def is_true(self) -> bool:
        """Strict truth: treats unknown as false (like ``if`` does)."""
        return self.truthiness() is True

    def logical_not(self) -> "Vec4":
        truth = self.truthiness()
        if truth is None:
            return Vec4.all_x(1)
        return Vec4.from_int(0 if truth else 1, 1)

    def logical_and(self, other: "Vec4") -> "Vec4":
        a, b = self.truthiness(), other.truthiness()
        if a is False or b is False:
            return Vec4.from_int(0, 1)
        if a is None or b is None:
            return Vec4.all_x(1)
        return Vec4.from_int(1, 1)

    def logical_or(self, other: "Vec4") -> "Vec4":
        a, b = self.truthiness(), other.truthiness()
        if a is True or b is True:
            return Vec4.from_int(1, 1)
        if a is None or b is None:
            return Vec4.all_x(1)
        return Vec4.from_int(0, 1)

    # -- structure ------------------------------------------------------------

    def concat(self, other: "Vec4") -> "Vec4":
        """Concatenate with ``other`` on the right (LSB side)."""
        width = self.width + other.width
        shift = other.width
        return Vec4(
            width,
            (self.val << shift) | other.val,
            (self.xz << shift) | other.xz,
            (self.z << shift) | other.z,
            False,
        )

    def replicate(self, count: int) -> "Vec4":
        if count <= 0:
            raise ValueError(f"replication count must be positive: {count}")
        result = self
        for _ in range(count - 1):
            result = result.concat(self)
        return result

    def slice(self, high: int, low: int) -> "Vec4":
        """Extract bits ``[high:low]`` (bit positions, not declared idx).

        Out-of-range bits read as x, matching out-of-bounds select
        semantics.
        """
        if high < low:
            raise ValueError(f"invalid slice [{high}:{low}]")
        width = high - low + 1
        if low >= self.width or high < 0:
            return Vec4.all_x(width)
        if low >= 0:
            val, xz, z = self.val >> low, self.xz >> low, self.z >> low
        else:
            val, xz, z = self.val << -low, self.xz << -low, self.z << -low
            xz |= _mask(-low)
        inside = self.width - low
        if inside < width:
            xz |= _mask(width) & ~_mask(inside)
        return Vec4(width, val, xz, z, False)

    def set_slice(self, high: int, low: int, value: "Vec4") -> "Vec4":
        """Return a copy with bits ``[high:low]`` replaced by ``value``."""
        if high < low:
            raise ValueError(f"invalid slice [{high}:{low}]")
        value = value.resize(high - low + 1, False)
        lo, hi = max(low, 0), min(high, self.width - 1)
        if lo > hi:
            return Vec4(self.width, self.val, self.xz, self.z, self.signed)
        keep = ~(_mask(hi - lo + 1) << lo)
        if low >= 0:
            val, xz, z = value.val << low, value.xz << low, value.z << low
        else:
            val, xz, z = value.val >> -low, value.xz >> -low, value.z >> -low
        return Vec4(self.width, (self.val & keep) | (val & ~keep),
                    (self.xz & keep) | (xz & ~keep),
                    (self.z & keep) | (z & ~keep), self.signed)


def concat_all(parts: Iterable[Vec4]) -> Vec4:
    """Concatenate vectors left-to-right (first part becomes the MSBs)."""
    items: List[Vec4] = list(parts)
    if not items:
        raise ValueError("cannot concatenate zero vectors")
    result = items[0]
    for part in items[1:]:
        result = result.concat(part)
    return result


#: Convenient single-bit constants.
ZERO = Vec4.from_int(0, 1)
ONE = Vec4.from_int(1, 1)
X = Vec4.all_x(1)
Z = Vec4.all_z(1)


def vec_from_verilog_int(value: Union[int, Vec4], width: int) -> Vec4:
    """Coerce a Python int or Vec4 to a ``width``-bit Vec4."""
    if isinstance(value, Vec4):
        return value.resize(width, value.signed)
    return Vec4.from_int(value, width)
