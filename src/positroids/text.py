"""The text and JSON forms of permutations and necklaces, and the tables that read and write subset text.

`core` holds the values and the mathematics; this module turns them into text and back.  `positroids` loads it on the
first read of one of its names, and `cli` and `subsets` import it when they load, since every command prints and a
`Subset` reads its members here.  `families`, `minors` and `oracle` import it inside the calls that parse or print: a
basis list, a trace's diagram or JSON, a repr, an error or a sweep's first failure.  So a process that computes on
values it builds, such as a `verify_all` sweep, compiles none of it, and neither does a cold `import positroids`.

Subsets and permutations cross the text boundary by constant tables built
at import.  Out, a mask's members are read a hexadecimal digit at a time
(`_CHUNK_MEMBERS`) and its text a byte at a time (`_BYTE_TEXT`).  In,
`_TOKEN_BIT` maps each canonical element token "1" ... "64" to its bit,
and `_PERM_TOKEN` each canonical image token, signed or not, to its image.
A token not in its table ("03", "+3", "1_0", "x", "", "65", ...), a
repeated element, an element that does not fit in n, or images that are no
permutation or signs off the fixed points send the text down the slow path,
which reads every token with `int()` and reports the first bad entry or token.
An image token there is decimal digits, of any script, with at most one
trailing sign.
"""

from collections.abc import Iterator
from itertools import chain
from operator import getitem

from .core import (
    MAX_GROUND_SET, DecoratedPermutation, GrassmannNecklace, InvalidNecklaceError, ValidationError, _check_count,
    _check_type, _mask_violations, _necklace, _perm,
)


def _byte_row(r: int) -> tuple[str, ...]:
    """Row r of `_BYTE_TEXT`: byte b to the members 8r + 1 ... 8r + 8 that b holds, each followed by a comma.

    Element e doubles the row: the texts of the bytes with e's bit set are
    those without it, each followed by "e,".
    """
    texts = [""]
    for e in range(8 * r + 1, 8 * r + 9):
        token = f"{e},"
        texts += [text + token for text in texts]
    return tuple(texts)


def _chunk_row(r: int) -> dict[str, tuple[int, ...]]:
    """Row r of `_CHUNK_MEMBERS`: hex digit d to the members 4r + 1 ... 4r + 4 that d holds, doubled as above."""
    members = [()]
    for e in range(4 * r + 1, 4 * r + 5):
        members += [m + (e,) for m in members]
    return dict(zip("0123456789abcdef", members))


# 8 rows of 256 entries: joining the rows of a mask's 8 bytes, lowest first,
# and dropping the last character gives its comma-joined members.
_BYTE_TEXT = tuple(map(_byte_row, range(MAX_GROUND_SET // 8)))
# 16 rows of 16 entries each
_CHUNK_MEMBERS = tuple(map(_chunk_row, range(MAX_GROUND_SET // 4)))
_TOKEN_BIT = {str(e): 1 << (e - 1) for e in range(1, MAX_GROUND_SET + 1)}
# Each canonical image token, with or without a sign, to its image; `_SIGN`
# reads the sign, and a token without one is not in it.
_PERM_TOKEN = {f"{e}{sign}": e for e in range(1, MAX_GROUND_SET + 1) for sign in ("", "+", "-")}
_SIGN = {"+": 1, "-": -1}


def _members(mask: int) -> Iterator[int]:
    """The members of a mask, increasing: its hex digits, lowest first, pick one table row each."""
    return chain.from_iterable(map(getitem, _CHUNK_MEMBERS, f"{mask:x}"[::-1]))


# ---------------------------------------------------------------------------
# Text and object forms.
#
# Decorated permutation: comma-separated images, every fixed point suffixed
# with its sign, e.g. "8,1,4,2,5+,7,3,6".  Necklace: entries joined by
# semicolons, each a comma-separated increasing subset, e.g. "1,2;2,3;1,3".
# Whitespace is ignored.  Off the table path an image token is decimal digits
# (`str.isdecimal`, any script) with at most one trailing sign.


def format_perm(p: DecoratedPermutation) -> str:
    _check_type(p, DecoratedPermutation)
    toks = list(map(str, p.images))
    for i, c in p.colors:
        toks[i - 1] += "+" if c == 1 else "-"
    return ",".join(toks)


def _table_perm(s: str, toks: list[str]) -> DecoratedPermutation | None:
    """The value of a permutation's tokens read by `_PERM_TOKEN`, or None.

    None means a token is not in the table, the images are no permutation or
    the signs are not on exactly the fixed points, and the caller takes the
    `int()` loop.  s is the tokens joined: each token holds at most one sign, so
    counting the signs in s counts the signed tokens.
    """
    try:
        images = tuple(map(_PERM_TOKEN.__getitem__, toks))
        colors = tuple([(i, _SIGN[toks[i - 1][-1]]) for i, v in enumerate(images, 1) if v == i])
    except KeyError:
        return None
    n = len(images)
    # every image is at least 1, so n distinct ones up to n are a permutation
    if max(images) <= n and len(set(images)) == n and s.count("+") + s.count("-") == len(colors):
        return _perm(images, colors)
    return None


def parse_perm(text: str) -> DecoratedPermutation:
    _check_type(text, str)
    s = "".join(text.split())
    if not s:
        raise ValidationError("empty decorated permutation")
    toks = s.split(",")
    n = len(toks)
    if n > MAX_GROUND_SET:
        raise ValidationError(f"{n} images exceed the ground set cap of {MAX_GROUND_SET}")
    p = _table_perm(s, toks)
    if p is not None:
        return p
    images = []
    colors = {}
    seen = {}
    for pos, tok in enumerate(toks, start=1):
        sign = _SIGN.get(tok[-1:])
        digits = tok[:-1] if sign else tok
        if not digits.isdecimal():
            raise ValidationError(f"token {pos}: {tok!r} is not an image with an optional sign")
        v = int(digits)
        if not 1 <= v <= n:
            raise ValidationError(f"token {pos}: image {v} is out of range 1..{n}")
        if v in seen:
            raise ValidationError(f"token {pos}: image {v} already used at token {seen[v]}")
        seen[v] = pos
        if v == pos:
            if sign is None:
                raise ValidationError(f"token {pos}: fixed point {v} needs a + or - sign")
            colors[pos] = sign
        elif sign is not None:
            raise ValidationError(f"token {pos}: sign on {v}, which is not a fixed point here")
        images.append(v)
    # the loop has checked range, repeats and signs, so the value is valid as built
    return _perm(tuple(images), tuple(colors.items()))


def _format_mask(mask: int) -> str:
    # the mask's 8 bytes, lowest first, pick one table row each
    return "".join(map(getitem, _BYTE_TEXT, mask.to_bytes(8, "little")))[:-1]


def _token_mask(s: str) -> int:
    """Mask of a whitespace-free subset text read by `_TOKEN_BIT`, or -1.

    -1 means a token is not in the table or an element repeats, and the
    caller takes the `int()` path.  Distinct bits add without a carry, so a
    repeat shows as fewer bits than tokens.
    """
    if not s:
        return 0
    tokens = s.split(",")
    try:
        mask = sum(map(_TOKEN_BIT.__getitem__, tokens))
    except KeyError:
        return -1
    return mask if mask.bit_count() == len(tokens) else -1


def _read_mask(text: str, s: str, n: int) -> int:
    """Mask of the subset of {1, ..., n} named by s, which is text without its whitespace."""
    mask = _token_mask(s)
    if mask >= 0:
        _check_count(n)  # after the tokens: a non-integer entry is reported first
        if not mask >> n:
            return mask
    try:
        elements = [int(tok) for tok in s.split(",")]
    except ValueError:
        raise ValidationError(f"subset {text!r} has a non-integer entry") from None
    from .subsets import Subset

    return Subset.of(n, elements).mask


def format_necklace(necklace: GrassmannNecklace) -> str:
    _check_type(necklace, GrassmannNecklace)
    return ";".join(map(_format_mask, necklace.masks))


def parse_necklace(text: str) -> GrassmannNecklace:
    """Parse and validate a semicolon-joined necklace; n is the entry count."""
    _check_type(text, str)
    s = "".join(text.split())
    parts = s.split(";")
    n = len(parts)
    if n > MAX_GROUND_SET:
        raise ValidationError(f"{n} entries exceed the ground set cap of {MAX_GROUND_SET}")
    masks = []
    for idx, part in enumerate(parts, start=1):
        mask = _token_mask(part)
        if mask >> n:  # -1 as well: the int() path accepts or reports the entry
            try:
                mask = _read_mask(part, part, n)
            except ValidationError as e:
                raise ValidationError(f"entry {idx}: {e}") from None
        masks.append(mask)
    # n entries on a ground set of size n: only the size and step rules can fail
    bad = _mask_violations(masks)
    if bad:
        raise InvalidNecklaceError(bad)
    return _necklace(tuple(masks))


def perm_to_obj(p: DecoratedPermutation) -> dict:
    _check_type(p, DecoratedPermutation)
    return {
        "n": p.n,
        "perm": list(p.images),
        "col": {str(i): c for i, c in p.colors},
    }


def necklace_to_obj(necklace: GrassmannNecklace) -> dict:
    _check_type(necklace, GrassmannNecklace)
    return {
        "n": necklace.n,
        "k": necklace.k,
        "entries": [list(_members(mask)) for mask in necklace.masks],
    }
