"""Seeded benchmark inputs, built without calling the library under test.

Every input is made by this module's own code, so input construction warms
no cache or memo inside `positroids`: each timed call sees its input for the
first time, as a caller with fresh data would.  The necklace is derived by
the step rule from I_1 and the bases by Gale bounds, which also gives the
checks an expected answer that does not come from the code being timed.
The text forms are the ones the library and the CLI parse.
"""

from __future__ import annotations

import random
from itertools import combinations, islice

ENCODE_SIZES = (16, 32, 64)
RECOGNITION_SIZES = (7, 8, 9)
CLI_SIZE = 8

# Commands whose output the README prints, with that output.  "exact" means
# byte-exact stdout; the README shows only the first line of the trace.
README_GOLDEN = (
    (
        ("necklace", "--perm", "6,1,4,8,2,7,3,5"),
        "exact",
        "1,2,3,5;2,3,5,6;1,3,5,6;1,4,5,6;1,5,6,8;1,2,6,8;1,2,7,8;1,2,3,8\n",
    ),
    (("contract", "--perm", "6,1,4,8,2,7,3,5", "-j", "3"), "exact", "6,1,3+,4+,8,7,2,5\n"),
    (
        ("restrict", "--perm", "6,1,4,8,2,7,3,5", "-j", "5", "--trace"),
        "prefix",
        "restriction at j=5: 6,1,4,8,2,7,3,5 => 8,1,4,2,5+,7,3,6\n",
    ),
    (("is-positroid", "--bases", "1,2;2,3;3,4;1,4"), "exact", "positroid: false\nmatroid-exchange: true\n"),
)


def stream_rng(workload: str, seed: int, stream: str) -> random.Random:
    """Deterministic random stream, independent per workload, seed and stream."""
    return random.Random(f"{workload}/{seed}/{stream}")


def random_perm(rng: random.Random, n: int) -> tuple[tuple[int, ...], dict[int, int]]:
    """Uniform permutation of 1..n with a uniform +1/-1 color on each fixed point."""
    images = list(range(1, n + 1))
    rng.shuffle(images)
    colors = {i: rng.choice((-1, 1)) for i in range(1, n + 1) if images[i - 1] == i}
    return tuple(images), colors


def perm_text(images, colors) -> str:
    return ",".join(
        (f"{v}+" if colors[i] == 1 else f"{v}-") if v == i else str(v)
        for i, v in enumerate(images, start=1)
    )


def necklace_masks(images, colors) -> list[int]:
    """Entries I_1..I_n as bitmasks (bit i-1 holds element i).

    I_1 holds every i that comes before its preimage reading from 1, plus the
    -1 fixed points; I_{r+1} is I_r with r swapped for its image when r is in
    I_r, and I_r otherwise.
    """
    n = len(images)
    preimage = [0] * (n + 1)
    for i, v in enumerate(images, start=1):
        preimage[v] = i
    entry = 0
    for i in range(1, n + 1):
        if images[i - 1] == i:
            if colors[i] == -1:
                entry |= 1 << (i - 1)
        elif i < preimage[i]:
            entry |= 1 << (i - 1)
    entries = []
    for r in range(1, n + 1):
        entries.append(entry)
        if entry >> (r - 1) & 1:
            entry = entry & ~(1 << (r - 1)) | 1 << (images[r - 1] - 1)
    return entries


def basis_masks(entries: list[int]) -> list[int]:
    """Every k-subset that lies Gale-above I_t in the order starting at t, for every t."""
    n = len(entries)
    k = entries[0].bit_count()

    def ranks(mask, t):
        return sorted((e - t) % n for e in range(1, n + 1) if mask >> (e - 1) & 1)

    lows = [ranks(m, t) for t, m in enumerate(entries, start=1)]
    found = []
    for combo in combinations(range(1, n + 1), k):
        if all(
            all(x <= y for x, y in zip(low, sorted((e - t) % n for e in combo)))
            for t, low in enumerate(lows, start=1)
        ):
            found.append(sum(1 << (e - 1) for e in combo))
    return found


def subset_text(mask: int) -> str:
    return ",".join(str(i + 1) for i in range(mask.bit_length()) if mask >> i & 1)


def necklace_text(entries) -> str:
    return ";".join(subset_text(m) for m in entries)


def bases_text(bases) -> str:
    # combinations() yields members in lexicographic order, as format_bases sorts them
    return ";".join(subset_text(m) for m in bases)


# Every block of queries holds exactly this mix, in a seeded random order:
# for each encode size, 2 traced and 6 plain queries; for each recognition
# size, one relabelled family and one intact.  That is 80% encode, a quarter
# of them traced, and 20% recognition, half relabelled.  With the mix fixed,
# a seed moves the latency percentiles only through the inputs themselves.
QUERY_BLOCK = (
    [("encode", n, True) for n in ENCODE_SIZES for _ in range(2)]
    + [("encode", n, False) for n in ENCODE_SIZES for _ in range(6)]
    + [("recognize", n, relabelled) for n in RECOGNITION_SIZES for relabelled in (True, False)]
)


def encode_query(rng: random.Random, n: int, traced: bool):
    """("encode", perm text, necklace text, j, trace kind or None), or None to redraw."""
    images, colors = random_perm(rng, n)
    if traced:
        moved = [i for i in range(1, n + 1) if images[i - 1] != i]
        if not moved:
            return None  # only a non-fixed j has a trace
        j = rng.choice(moved)
        kind = rng.choice(("contraction", "restriction"))
    else:
        j, kind = rng.randint(1, n), None
    return "encode", perm_text(images, colors), necklace_text(necklace_masks(images, colors)), j, kind


def gale_minima(n: int, bases: list[int]) -> list[int]:
    """I_1..I_n of a matroid: in the order starting at t, its lexicographically least basis."""
    def ranks(mask, t):
        return sorted((e - t) % n for e in range(1, n + 1) if mask >> (e - 1) & 1)

    return [min(bases, key=lambda m: ranks(m, t)) for t in range(1, n + 1)]


def recognition_query(rng: random.Random, n: int, relabelled: bool):
    """("recognize", n, bases text, relabelled, whether a positroid), or None to redraw.

    The family is the bases of a random positroid.  A relabelled family
    permutes its ground set at random: it stays a matroid, and is a positroid
    exactly when its Gale minima cut it out again.
    """
    entries = necklace_masks(*random_perm(rng, n))
    if entries[0] == 0:
        return None  # rank 0: the only basis is empty and has no text form
    bases = basis_masks(entries)
    if not relabelled:
        return "recognize", n, bases_text(bases), relabelled, True
    target = list(range(n))
    rng.shuffle(target)
    relabel = (sum(1 << target[e] for e in range(n) if m >> e & 1) for m in bases)
    bases = sorted(relabel, key=lambda m: [e for e in range(n) if m >> e & 1])  # lexicographic
    positroid = basis_masks(gale_minima(n, bases)) == bases
    return "recognize", n, bases_text(bases), relabelled, positroid


def query_stream(seed: int, stream: str, seen: set):
    """Endless stream of distinct library queries for the `queries` workload.

    Queries come in shuffled blocks of QUERY_BLOCK.  An input already in
    `seen` is redrawn and each new one is added to it, so streams sharing a
    set never repeat an input.
    """
    rng = stream_rng("queries", seed, stream)
    while True:
        block = list(QUERY_BLOCK)
        rng.shuffle(block)
        for slice_name, n, flag in block:
            make = encode_query if slice_name == "encode" else recognition_query
            query = make(rng, n, flag)
            while query is None or input_text(query) in seen:
                query = make(rng, n, flag)
            seen.add(input_text(query))
            yield query


def input_text(query) -> str:
    """The text a query parses, which no other query may repeat."""
    return query[1] if query[0] == "encode" else query[2]


def cli_stream(seed: int):
    """Endless stream of (argv, match, expected stdout) for the `cli` workload.

    Each cycle takes a fresh decorated permutation p of size CLI_SIZE with a
    non-fixed point j and rank at least 1, and runs necklace, perm (on the
    necklace just printed), restrict --trace, bases and is-positroid (on the
    bases just printed), then one README command in rotation.  `match` is
    "exact" or "prefix".
    """
    rng = stream_rng("cli", seed, "main")
    cycle = 0
    while True:
        images, colors = random_perm(rng, CLI_SIZE)
        moved = [i for i in range(1, CLI_SIZE + 1) if images[i - 1] != i]
        entries = necklace_masks(images, colors)
        if not moved or entries[0] == 0:
            continue
        j = rng.choice(moved)
        perm = perm_text(images, colors)
        necklace = necklace_text(entries)
        bases = bases_text(basis_masks(entries))
        yield ("necklace", "--perm", perm), "exact", necklace + "\n"
        yield ("perm", "--necklace", necklace), "exact", perm + "\n"
        yield ("restrict", "--perm", perm, "-j", str(j), "--trace"), "prefix", f"restriction at j={j}: {perm} => "
        yield ("bases", "--perm", perm), "exact", bases + "\n"
        yield (
            ("is-positroid", "--bases", bases, "--n", str(CLI_SIZE)),
            "exact",
            "positroid: true\nmatroid-exchange: true\n",
        )
        yield README_GOLDEN[cycle % len(README_GOLDEN)]
        cycle += 1


# Inputs built ahead of timing when measuring setup: the warm-up block plus
# the first block of timed queries, or the first cycles of CLI commands.
# The self-test's tiny runs build a tenth of them.
SETUP_QUERIES = 300
SETUP_CLI_CALLS = 120


def warmup_size(tiny: bool) -> int:
    return 20 if tiny else 200


def build_inputs(workload: str, seed: int, tiny: bool) -> list:
    """The inputs whose library parse setup_s counts (the sweep enumerates its own)."""
    scale = 10 if tiny else 1
    if workload == "queries":
        seen: set = set()
        warm = list(islice(query_stream(seed, "warmup", seen), warmup_size(tiny)))
        return warm + list(islice(query_stream(seed, "main", seen), SETUP_QUERIES // scale))
    if workload == "cli":
        return list(islice(cli_stream(seed), SETUP_CLI_CALLS // scale))
    return []


def parse_lines(workload: str, seed: int, tiny: bool) -> list[str]:
    """The texts of build_inputs as tab-separated lines for `child.py setup`.

    Each line is `perm<TAB>text`, `necklace<TAB>text` or
    `bases<TAB>n<TAB>text`, with n empty when the command gives none.
    """
    lines = []
    for item in build_inputs(workload, seed, tiny):
        if item[0] == "encode":
            lines += [f"perm\t{item[1]}", f"necklace\t{item[2]}"]
        elif item[0] == "recognize":
            lines.append(f"bases\t{item[1]}\t{item[2]}")
        else:
            argv = item[0]
            options = dict(zip(argv[1::2], argv[2::2]))  # every command starts with its input option
            for flag, kind in (("--perm", "perm"), ("--necklace", "necklace")):
                if flag in options:
                    lines.append(f"{kind}\t{options[flag]}")
            if "--bases" in options:
                lines.append(f"bases\t{options.get('--n', '')}\t{options['--bases']}")
    return lines
