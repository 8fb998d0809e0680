"""Verdict tables and output digests over the seeded audit sets.

Usage (from the repository root):

    PYTHONPATH=src python tools/audit.py LABEL [--limit N] [--out DIR]

Runs ``check_finiteness``, ``certify`` and ``solve_mg`` on every draw of
the audit sets, all built by the recipes in ``tests/conftest.py``:

- ``suite``: 150 draws of ``random_datum(default_rng(7), balanced=True)``;
- ``large``: 1,000 draws of ``random_datum(default_rng(123), balanced=True)``;
- ``wider-<kind>``: 600 draws of ``wider_datum(default_rng(5), kind)`` for
  each of the five map kinds, each kind from a fresh generator;
- ``mixed``: 15,000 draws of ``mixed_datum(default_rng(2026))``;
- ``truncated``: 200 draws of ``truncated_datum(default_rng(13))``, with
  n from 13 to 16, so the coordinate family is cut at the profile cap.

It writes ``AUDIT_<LABEL>.json`` (strict JSON) into ``--out`` (default:
the current directory).  Per set it holds the draw count and:

- ``finite`` / ``infinite`` / ``unknown``: the verdicts, and ``raised``:
  draws on which any of the three calls raised (their indices and
  messages are under ``raises``); the four add up to the draw count;
- ``converged`` / ``not_converged``: the solves of the ``finite`` draws;
- ``nan``: draws whose ``mg_value`` is NaN;
- ``false_finite_zero_exponents``: ``finite`` draws whose reduction
  (maps with c_j = 0 and blocks with d_i = 0 dropped) is infinite or
  loses a map's row rank;
- ``dropped_subroot_violations``: draws whose split tree has an
  irreducible leaf below the root on which ``check_finiteness`` reads
  ``infinite``;
- ``digests``: SHA-256 of the ``check``, ``certify`` and ``solve_mg``
  outputs of the set, to the bit (floats by ``repr``), and
  ``draws_digests``: each draw's three output digests.

Each set's wall time (``time.perf_counter``) and the number of matrices
it passed to each of ``np.linalg.svd``, ``qr``, ``cholesky``, ``eigh``,
``lstsq`` and ``det`` (a stacked call counts each matrix) go to stderr and not
into the file, so two runs on the same code write the same bytes, and
files from two commits compare output for output.

``--limit N`` keeps the first N draws of each set.  Two files are
compared with ``python tools/audit.py --compare A B``, which prints each
count and digest that differs, and the draws whose outputs differ, and
exits 1 if anything differs ("no difference" and 0 otherwise); it reads
the two files only, so it needs no ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

COUNTS = (
    "draws",
    "finite",
    "infinite",
    "unknown",
    "raised",
    "converged",
    "not_converged",
    "nan",
    "false_finite_zero_exponents",
    "dropped_subroot_violations",
)
OUTPUTS = ("check", "certify", "solve")
# the factorizations whose matrices a run counts, on stderr
FACTORIZATIONS = ("svd", "qr", "cholesky", "eigh", "lstsq", "det")


def audit_sets(limit=None):
    """(name, draws) for each audit set; draws is a generator of data."""
    from conftest import MAP_KINDS, mixed_datum, random_datum, truncated_datum, wider_datum

    def draws(make, count):
        for _ in range(count if limit is None else min(count, limit)):
            yield make()

    def seeded(seed, make):
        rng = np.random.default_rng(seed)
        return lambda: make(rng)

    yield "suite", draws(seeded(7, lambda rng: random_datum(rng, balanced=True)), 150)
    yield "large", draws(seeded(123, lambda rng: random_datum(rng, balanced=True)), 1000)
    for kind in MAP_KINDS:
        yield f"wider-{kind}", draws(seeded(5, lambda rng, kind=kind: wider_datum(rng, kind)), 600)
    yield "mixed", draws(seeded(2026, mixed_datum), 15000)
    yield "truncated", draws(seeded(13, truncated_datum), 200)


def _floats(a) -> list:
    return [repr(float(x)) for x in np.ravel(a)]


def _witness(w) -> list:
    from blepi.finiteness import ViolatingSubspace

    if w is None:
        return [None]
    if isinstance(w, ViolatingSubspace):
        return ["subspace", repr(w.slack), [_floats(B) for B in w.subspace.bases]]
    return ["residual", repr(w.value)]


def _tree(node) -> list:
    if node.is_leaf:
        return [node.leaf_kind, repr(node.constant), list(node.datum.partition.blocks)]
    return [list(node.subspace.block_dims), [_tree(child) for child in node.children]]


def _reduction_is_infinite(datum) -> bool:
    """Whether the datum without its c_j = 0 maps and d_i = 0 blocks is
    infinite: a kept map loses row rank, or the reduced check says so."""
    from blepi.datum import Datum, Partition, validate
    from blepi.finiteness import INFINITE, check_finiteness

    maps = [j for j, cj in enumerate(datum.c) if cj != 0]
    blocks = [i for i, di in enumerate(datum.d) if di != 0]
    if len(maps) == datum.m and len(blocks) == datum.partition.k:
        return False
    offsets = datum.partition.offsets()
    cols = [col for i in blocks for col in range(*offsets[i])]
    reduced = Datum(
        partition=Partition(tuple(datum.partition.blocks[i] for i in blocks)),
        maps=tuple(datum.maps[j][:, cols] for j in maps),
        c=datum.c[maps],
        d=datum.d[blocks],
    )
    if not validate(reduced).ok:
        return True
    return check_finiteness(reduced).status == INFINITE


def audit_draw(datum) -> dict:
    """The three outputs of one draw, its verdict and its flags."""
    from blepi.finiteness import INFINITE, ViolationError, certify, check_finiteness
    from blepi.gauss import solve_mg

    verdict = check_finiteness(datum)
    out = {"status": verdict.status, "check": [verdict.status, _witness(verdict.witness)]}
    tree = None
    try:
        tree = certify(datum)
        out["certify"] = _tree(tree)
    except ViolationError as exc:
        out["certify"] = ["violation", _witness(exc.witness)]
    res = solve_mg(datum)
    out["solve"] = [
        repr(res.mg_value),
        res.converged,
        res.unbounded,
        res.starts_used,
        repr(res.gradient_norm),
    ]
    out["converged"] = res.converged
    out["nan"] = math.isnan(res.mg_value)
    finite = verdict.status == "finite"
    out["false_finite"] = finite and _reduction_is_infinite(datum)
    below = [] if tree is None or tree.is_leaf else tree.leaves()
    out["dropped"] = any(
        leaf.leaf_kind == "irreducible" and check_finiteness(leaf.datum).status == INFINITE
        for leaf in below
    )
    return out


def audit_set(draws) -> dict:
    counts = dict.fromkeys(COUNTS, 0)
    hashes = {name: hashlib.sha256() for name in OUTPUTS}
    per_draw, raises = [], []
    for i, datum in enumerate(draws):
        counts["draws"] += 1
        try:
            rec = audit_draw(datum)
        except Exception as exc:  # an audit counts every raise; it must not stop
            counts["raised"] += 1
            raises.append([i, f"{type(exc).__name__}: {exc}"])
            rec = {name: ["raised", type(exc).__name__] for name in OUTPUTS}
        else:
            counts[rec["status"]] += 1
            if rec["status"] == "finite":
                counts["converged" if rec["converged"] else "not_converged"] += 1
            counts["nan"] += rec["nan"]
            counts["false_finite_zero_exponents"] += rec["false_finite"]
            counts["dropped_subroot_violations"] += rec["dropped"]
        digests = []
        for name in OUTPUTS:
            line = json.dumps(rec[name], allow_nan=False).encode() + b"\n"
            hashes[name].update(line)
            digests.append(hashlib.sha256(line).hexdigest()[:16])
        per_draw.append(digests)
    doc = dict(counts)
    doc["digests"] = {name: h.hexdigest() for name, h in hashes.items()}
    doc["raises"] = raises
    doc["draws_digests"] = per_draw
    return doc


def run(label: str, limit=None, out=".") -> Path:
    doc = {"label": label, "limit": limit, "sets": {}}
    originals = {name: getattr(np.linalg, name) for name in FACTORIZATIONS}
    counts = dict.fromkeys(FACTORIZATIONS, 0)

    def counting(name):
        factor = originals[name]

        def counted(a, *args, **kwargs):
            counts[name] += int(np.prod(np.shape(a)[:-2]))
            return factor(a, *args, **kwargs)

        return counted

    for name in FACTORIZATIONS:
        setattr(np.linalg, name, counting(name))
    try:
        for name, draws in audit_sets(limit):
            counts.update(dict.fromkeys(FACTORIZATIONS, 0))
            start = time.perf_counter()
            doc["sets"][name] = audit_set(draws)
            seconds = time.perf_counter() - start
            matrices = ", ".join(f"{counts[f]} {f}" for f in FACTORIZATIONS)
            print(f"{name}: {seconds:.2f} s, matrices: {matrices}", file=sys.stderr)
    finally:
        for name, factor in originals.items():
            setattr(np.linalg, name, factor)
    path = Path(out) / f"AUDIT_{label}.json"
    path.write_text(json.dumps(doc, indent=1, allow_nan=False) + "\n")
    return path


def compare(a: dict, b: dict) -> list[str]:
    """Lines naming each count, digest and draw that differs from a to b."""
    lines = []
    for name in sorted(set(a["sets"]) | set(b["sets"])):
        sa, sb = a["sets"].get(name), b["sets"].get(name)
        if sa is None or sb is None:
            lines.append(f"{name}: only in {a['label'] if sb is None else b['label']}")
            continue
        for key in COUNTS:
            if sa[key] != sb[key]:
                lines.append(f"{name}: {key} {sa[key]} -> {sb[key]}")
        for key in OUTPUTS:
            if sa["digests"][key] != sb["digests"][key]:
                lines.append(f"{name}: {key} digest differs")
        for i, (da, db) in enumerate(zip(sa["draws_digests"], sb["draws_digests"])):
            moved = [key for key, x, y in zip(OUTPUTS, da, db) if x != y]
            if moved:
                lines.append(f"{name}: draw {i}: {', '.join(moved)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("label", nargs="?", help="writes AUDIT_<label>.json")
    parser.add_argument("--limit", type=int, default=None, help="first N draws of each set")
    parser.add_argument("--out", default=".", help="directory for the audit file")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="diff two audit files")
    args = parser.parse_args(argv)
    if args.compare:
        a, b = (json.loads(Path(p).read_text()) for p in args.compare)
        lines = compare(a, b)
        print("\n".join(lines) if lines else "no difference")
        return 1 if lines else 0
    if args.label is None:
        parser.error("a label is required unless --compare is given")
    print(run(args.label, args.limit, args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
