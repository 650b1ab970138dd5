"""The three benchmark workloads and their correctness gate.

Each workload is built once per set-up (families written to files, seeded
inputs generated, witness-free colourings harvested) and then runs whole
passes over its instances.  Every answer is recorded during a pass and
checked after the pass, outside the timed region, against the recorded
values in expected.json or against the independent reference scanner below.

All library calls go through module attributes (``self.lib.search.x``) so
that the traced run can swap in its wrappers without touching this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import statistics
import time
from dataclasses import replace
from pathlib import Path

EXPECTED = json.loads((Path(__file__).resolve().parent / "expected.json").read_text())

MUTATION_REASONS = ("element mismatch", "element mismatch", "digest mismatch")

X2X = ([1], [2])
X2X3X = ([1], [2], [3])
X_XSQ = ([1], [0, 1])
SHIFTED_SQUARES = ([1, 1], [3, 1])  # x^2 + x, x^2 + 3x

# Acceptance grid of the test suite: each family is both the mono and the
# rainbow family, under two step policies and three palette caps.
GRID_FAMILIES = (
    ("x", ([1],)),
    ("x,2x", ([1], [2])),
    ("x^2", ([0, 1],)),
    ("x,x^2", X_XSQ),
)
GRID_POLICIES = ("positive", "nonzero")
GRID_PALETTES = (None, 2, 3)
GRID_N_LIMIT = 10


class Gate:
    """Counts operations attempted and answers found wrong."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


class Workload:
    """Interface of a workload; the defaults add nothing."""

    def figures(self, passes: list[dict]) -> dict:
        """Workload-specific end-to-end figures, each as (value, unit)."""
        return {}

    def probe(self) -> dict:
        """Per-layer metrics timed with direct calls, outside any pass."""
        return {}

    def cross_check(self, gate: "Gate") -> None:
        """Checks that run once, after the passes."""


def _family(lib, coeffs, role="mono"):
    return lib.polynomial.PolynomialFamily.from_coeff_lists(coeffs, role)


# ---------------------------------------------------------------- pruned


class PrunedWorkload(Workload):
    """In-process ``canvdw number`` calls: every instance at one worker, and
    W(3;3) once more at two workers.

    Nearly all of a pass is the pruned walk's prune check; the scanner and
    the digest do almost no work here.  The two-worker call is the only one
    in the benchmark that reaches the worker-pool branch of the search; it
    runs next to the one-worker W(3;3) call, and the two swap order every
    pass, so ``speedup_2w`` compares them under the same conditions.
    """

    name = "pruned"
    # (instance, mono family, rainbow family or None, palette cap, n_limit)
    INSTANCES = (
        ("W(3;2)", X2X, None, 2, 12),
        ("W(4;2)", X2X3X, None, 2, 40),
        ("W(3;3)", X2X, None, 3, 30),
        ("canonical-3AP", X2X, X2X, None, 12),
        ("canonical-4AP@13", X2X3X, X2X3X, None, 13),
    )
    POOLED = "W(3;3)"

    def __init__(self, lib, seed: int, workdir: Path):
        self.lib = lib
        self.workdir = workdir
        rng = random.Random(seed)
        # Each entry is (instance, {workers: argv}); the seed sets the order
        # of the instances and which worker count runs first for W(3;3).
        self.calls = [(inst[0], {1: self._argv(*inst)}) for inst in self.INSTANCES]
        rng.shuffle(self.calls)
        pooled = next(argvs for name, argvs in self.calls if name == self.POOLED)
        inst = next(inst for inst in self.INSTANCES if inst[0] == self.POOLED)
        pooled[2] = self._argv(*inst, threads=2)
        self.order = [1, 2] if rng.random() < 0.5 else [2, 1]

    def _family_file(self, coeffs, role) -> str:
        path = self.workdir / f"{len(coeffs)}terms.{role}.json"
        path.write_text(json.dumps({"polys": [list(c) for c in coeffs], "role": role}))
        return str(path)

    def _argv(self, name, mono, rain, max_classes, n_limit, threads=1):
        argv = ["number", "--mono", self._family_file(mono, "mono")]
        if rain is None:
            argv.append("--no-rainbow")
        else:
            argv += ["--rainbow", self._family_file(rain, "rainbow")]
        if max_classes is not None:
            argv += ["--max-classes", str(max_classes)]
        report = self.workdir / f"{name}.t{threads}.report.json"
        return argv + ["--n-limit", str(n_limit), "--threads", str(threads), "--out", str(report)]

    def _number(self, name, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            code = self.lib.cli.main(argv)
            dt = time.perf_counter() - t0
        return dt, (name, code, out.getvalue(), argv[-1])

    def run_pass(self) -> dict:
        answers = []
        walls = {}
        search_s = 0.0
        t0 = time.perf_counter()
        for name, argvs in self.calls:
            for workers in self.order if len(argvs) > 1 else (1,):
                dt, answer = self._number(name, argvs[workers])
                search_s += dt
                answers.append(answer)
                if len(argvs) > 1:
                    walls[workers] = dt
        wall = time.perf_counter() - t0
        self.order.reverse()
        return {"wall": wall, "search_s": search_s, "walls": walls, "answers": answers}

    def check_pass(self, result: dict, gate: Gate) -> dict:
        nodes = survivors = 0
        for name, code, stdout, report_path in result["answers"]:
            exp = EXPECTED["pruned"][name]
            report = Path(report_path).read_bytes()
            rep = json.loads(report)
            number = exp["canonical_number"]
            gate.check(
                code == (0 if number is not None else 1)
                and stdout == ("" if number is None else f"{number}\n")
                and rep["canonical_number"] == number
                and rep["nodes_expanded"] == exp["nodes_expanded"]
                and rep["witness_free_per_length"] == exp["witness_free_per_length"]
                and hashlib.sha256(report).hexdigest() == exp["report_sha256"],
                f"{self.name}: {name} answer differs from expected.json",
            )
            nodes += rep["nodes_expanded"]
            survivors += sum(rep["witness_free_per_length"])
        return {"nodes": nodes, "survivors": survivors}

    def figures(self, passes):
        rates = [p["checked"]["nodes"] / p["search_s"] for p in passes]
        w1 = median([p["walls"][1] for p in passes])
        w2 = median([p["walls"][2] for p in passes])
        return {
            "nodes_per_s": (median(rates), "1/s"),
            "speedup_2w": (w1 / w2, "x"),
            "speedup_2w.base_1w_s": (w1, "s"),
        }

    def probe(self):
        # Plan build: each instance's search stopped after its first node.
        cfgs = [
            self.lib.search.SearchConfig(
                mono_family=_family(self.lib, mono),
                rainbow_family=None if rain is None else _family(self.lib, rain, "rainbow"),
                max_classes=max_classes,
                n_limit=n_limit,
                node_budget=1,
            )
            for name, mono, rain, max_classes, n_limit in self.INSTANCES
        ]
        reps = []
        for _ in range(5):
            t0 = time.perf_counter()
            for cfg in cfgs:
                self.lib.search.canonical_number(cfg)
            reps.append(time.perf_counter() - t0)
        return {"search.plan_build_s": median(reps)}


# ---------------------------------------------------------------- oracle


class OracleWorkload(Workload):
    """The naive engine on the 24-config acceptance grid plus W(3;2).

    All of the time is enumeration, colouring construction, the witness scan
    and the digest on each hit; no pruned search runs during a pass.
    """

    name = "oracle"

    def __init__(self, lib, seed: int, workdir: Path):
        self.lib = lib
        SearchConfig = lib.search.SearchConfig
        self.configs = []
        for fname, coeffs in GRID_FAMILIES:
            for policy in GRID_POLICIES:
                for mc in GRID_PALETTES:
                    cfg = SearchConfig(
                        mono_family=_family(lib, coeffs),
                        rainbow_family=_family(lib, coeffs, "rainbow"),
                        d_policy=policy,
                        max_classes=mc,
                        n_limit=GRID_N_LIMIT,
                    )
                    self.configs.append((f"{fname}/{policy}/{mc}", cfg))
        self.configs.append(("W(3;2)", SearchConfig(mono_family=_family(lib, X2X), max_classes=2)))
        random.Random(seed).shuffle(self.configs)

    def run_pass(self) -> dict:
        answers = []
        search_s = 0.0
        t0 = time.perf_counter()
        for key, cfg in self.configs:
            res = self.lib.search.naive_canonical_number(cfg)
            search_s += res.wall_time
            answers.append((key, res))
        wall = time.perf_counter() - t0
        return {"wall": wall, "search_s": search_s, "answers": answers}

    def check_pass(self, result: dict, gate: Gate) -> dict:
        examined = 0
        for key, res in result["answers"]:
            exp = EXPECTED["oracle"][key]
            gate.check(
                res.canonical_number == exp["canonical_number"]
                and list(res.witness_free_per_length) == exp["witness_free_per_length"]
                and res.nodes_expanded == exp["colourings_examined"],
                f"{self.name}: naive answer for {key} differs from expected.json",
            )
            examined += res.nodes_expanded
        return {"examined": examined}

    def cross_check(self, gate: Gate) -> None:
        """The recorded naive answers agree with the pruned engine."""
        for key, cfg in self.configs:
            exp = EXPECTED["oracle"][key]
            res = self.lib.search.canonical_number(cfg)
            k = len(exp["witness_free_per_length"])
            gate.check(
                res.canonical_number == exp["canonical_number"]
                and list(res.witness_free_per_length[:k]) == exp["witness_free_per_length"],
                f"{self.name}: pruned and naive engines disagree on {key}",
            )

    def figures(self, passes):
        rates = [p["checked"]["examined"] / p["search_s"] for p in passes]
        return {"colourings_per_s": (median(rates), "1/s")}

    def probe(self):
        # The pass's enumerations, drained with no scanning.
        count = 0
        t0 = time.perf_counter()
        for key, cfg in self.configs:
            last = len(EXPECTED["oracle"][key]["witness_free_per_length"])
            for length in range(1, last + 1):
                for _ in self.lib.coloring.enumerate_colourings(length, cfg.max_classes):
                    count += 1
        return {"coloring.enumerate_colourings.per_s": count / (time.perf_counter() - t0)}


# --------------------------------------------------------------- certify


def _value(coeffs, d):
    return sum(c * d ** (i + 1) for i, c in enumerate(coeffs))


def reference_witness(rows, m, n, mono, rainbow, h, policy):
    """First witness in scan order, found by plain brute force.

    Independent of the library: steps by increasing |d|, positive first,
    then anchors in increasing order, mono before rainbow.  Families are
    coefficient lists.  Returns (kind, a, d, elements, evidence) or None.
    """
    length = len(rows)
    # Every family used here has a member with |p(d)| >= |d| - 2, so no
    # witness fits beyond this step size.
    bound = length + 3
    for size in range(1, bound + 1):
        for d in (size, -size):
            probes = []
            if mono and (d > 0 if policy == "positive" else d != 0):
                probes.append(("monochromatic", [0] + [_value(p, d) for p in mono]))
            if rainbow:
                if policy == "positive" or policy == "greater_than_h_for_rainbow":
                    ok = d > (0 if policy == "positive" else h)
                else:
                    ok = d != 0
                offs = [0] + [_value(p, d) for p in rainbow]
                if ok and len(set(offs)) == len(offs):
                    probes.append(("rainbow", offs))
            for a in range(1, length + 1):
                for kind, offs in probes:
                    elems = tuple(a + o for o in offs)
                    if min(elems) < 1 or max(elems) > length:
                        continue
                    if kind == "monochromatic":
                        for j in range(m):
                            if len({rows[e - 1][j] for e in elems}) == 1:
                                return (kind, a, d, elems, j + 1)
                        continue
                    labels = [lab for e in elems for lab in set(rows[e - 1][:m])]
                    if len(set(labels)) != len(labels):
                        continue
                    if n is None:
                        return ("rainbow", a, d, elems, None)
                    finals = {rows[e - 1][m] for e in elems}
                    if len(finals) == 1:
                        return ("fully-rainbow", a, d, elems, finals.pop())
    return None


class CertifyWorkload(Workload):
    """Certificate round trips on seeded random typed colourings.

    Each input is scanned with find_witness; each hit is written to JSON,
    read back, verified, and three mutated copies must be rejected with
    their exact reasons.  Witness-free colourings harvested from two
    searches make up the rest: their scans run to the end and miss.
    """

    name = "certify"
    RANDOM_INPUTS = 7600
    HARVEST_4AP = 400
    # (mono family, rainbow family, step policy).  Random inputs use the
    # first three; harvested colourings use the families they came from.
    CONFIGS = (
        (X2X, X2X, "nonzero"),
        (X_XSQ, X_XSQ, "positive"),
        (X2X, SHIFTED_SQUARES, "greater_than_h_for_rainbow"),
        (X2X, None, "nonzero"),
        (X2X3X, X2X3X, "nonzero"),
    )

    def __init__(self, lib, seed: int, workdir: Path):
        self.lib = lib
        self.h = lib.polynomial.h_value(_family(lib, SHIFTED_SQUARES, "rainbow"))
        # (mono coeffs, rainbow coeffs, h, policy, mono family, rainbow family)
        self.configs = [
            (
                mono,
                rain,
                self.h if policy == "greater_than_h_for_rainbow" else 0,
                policy,
                _family(lib, mono),
                None if rain is None else _family(lib, rain, "rainbow"),
            )
            for mono, rain, policy in self.CONFIGS
        ]
        TypedColouring = lib.coloring.TypedColouring
        rng = random.Random(seed)
        inputs = []
        for _ in range(self.RANDOM_INPUTS):
            length = rng.randint(20, 60)
            m = rng.choice((1, 2))
            n = rng.choice((None, 2, 3))
            classes = rng.randint(3, 6)
            rows = []
            for _ in range(length):
                row = [rng.randrange(classes) for _ in range(m)]
                if n is not None:
                    row.append(rng.randint(1, n))
                rows.append(tuple(row))
            inputs.append((TypedColouring(m, n, tuple(rows)), rng.randrange(3)))

        SearchConfig = lib.search.SearchConfig
        *_, w33_mono, _ = self.configs[3]
        *_, ap4_mono, ap4_rain = self.configs[4]
        w33_free = lib.search.extremal_colourings(
            SearchConfig(mono_family=w33_mono, max_classes=3, n_limit=26), 26
        )
        ap4_free = lib.search.extremal_colourings(
            SearchConfig(mono_family=ap4_mono, rainbow_family=ap4_rain, n_limit=13),
            13,
            self.HARVEST_4AP,
        )
        self.harvested = [len(w33_free), len(ap4_free)]
        inputs += [(c, 3) for c in w33_free] + [(c, 4) for c in ap4_free]
        rng.shuffle(inputs)
        self.inputs = inputs
        self.reference: list | None = None

    def run_pass(self) -> dict:
        w = self.lib.witness
        find_witness = w.find_witness
        verify = w.verify_certificate
        Certificate = w.Certificate
        configs = self.configs
        clock = time.perf_counter
        outcomes = []
        latencies = []
        t0 = clock()
        for col, ci in self.inputs:
            _, _, h, policy, mono, rain = configs[ci]
            s = clock()
            cert = find_witness(col, mono, rain, h, policy)
            if cert is None:
                latencies.append(clock() - s)
                outcomes.append(None)
                continue
            back = Certificate.from_json(cert.to_json())
            accepted = verify(col, back)
            elems = cert.elements
            mutated = (
                verify(col, replace(cert, elements=elems[:-1] + (elems[-1] + 1,))),
                verify(col, replace(cert, a=cert.a + 1)),
                verify(col, replace(cert, digest="0" * 64)),
            )
            latencies.append(clock() - s)
            outcomes.append((cert, back == cert, tuple(accepted), tuple(tuple(v) for v in mutated)))
        wall = clock() - t0
        return {"wall": wall, "latencies": latencies, "outcomes": outcomes}

    def check_pass(self, result: dict, gate: Gate) -> dict:
        if self.reference is None:
            exp = EXPECTED["certify"]
            gate.check(
                self.h == exp["h"] and self.harvested == exp["harvested"],
                f"{self.name}: h value or harvested colourings differ from expected.json",
            )
            self.reference = [
                reference_witness(col.rows, col.m, col.n, *self.configs[ci][:4])
                for col, ci in self.inputs
            ]
        hits = 0
        for i, (outcome, ref) in enumerate(zip(result["outcomes"], self.reference)):
            if outcome is None:
                gate.check(ref is None, f"{self.name}: input {i} missed a witness")
                continue
            hits += 1
            cert, round_trip, accepted, mutated = outcome
            found = (cert.kind, cert.a, cert.d, cert.elements, cert.evidence)
            gate.check(
                found == ref
                and round_trip
                and accepted == (True, None)
                and mutated == tuple((False, r) for r in MUTATION_REASONS),
                f"{self.name}: input {i} certificate or verdict is wrong",
            )
        return {"hits": hits}

    def figures(self, passes):
        lat = sorted(x for p in passes for x in p["latencies"])
        return {
            "certs_per_s": (median([len(self.inputs) / p["wall"] for p in passes]), "1/s"),
            "cert_p50_us": (percentile(lat, 0.50) * 1e6, "us"),
            "cert_p99_us": (percentile(lat, 0.99) * 1e6, "us"),
            "cert_latency.samples": (len(lat), "count"),
        }

    def probe(self):
        family = self.configs[2][5]
        reps = 200
        t0 = time.perf_counter()
        for _ in range(reps):
            self.lib.polynomial.h_value(family)
        return {"polynomial.h_value.us": (time.perf_counter() - t0) / reps * 1e6}


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(sorted_values, q):
    """Nearest-rank percentile of a non-empty sorted list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


WORKLOADS = {w.name: w for w in (PrunedWorkload, OracleWorkload, CertifyWorkload)}
