"""Acceptance gate: ten checks, one printed pass/fail line each.

Each check recomputes its expected values through an independent route
(brute force, closed-form examples, or randomized property trials) rather
than trusting the code under test.
"""

import json
import random
import time
from dataclasses import replace

from canvdw.cli import main as cli_main
from canvdw.coloring import enumerate_colourings
from canvdw.polynomial import bstar_family, h_value, weight_less, weight_vector
from canvdw.search import (
    SearchConfig,
    canonical_number,
    naive_canonical_number,
    run_report,
)
from canvdw.witness import (
    KIND_FULLY_RAINBOW,
    KIND_MONO,
    KIND_RAINBOW,
    collection_norm,
    find_witness,
    is_fully_rainbow,
    is_monochromatic,
    is_rainbow,
    validate_collection,
    verify_certificate,
)

from _helpers import (
    brute_force_shift_threshold,
    fam,
    merge_two_classes,
    pigeonhole_instance,
    random_colouring,
    random_rainbow_family,
    relabel,
)

GRID_FAMILIES = (
    ("x", ([1],)),
    ("x,2x", ([1], [2])),
    ("x^2", ([0, 1],)),
    ("x,x^2", ([1], [0, 1])),
)
GRID_PALETTES = (None, 2, 3)
GRID_POLICIES = ("positive", "nonzero")
GRID_N_LIMIT = 10

CLASSICAL = SearchConfig(mono_family=fam([1], [2]), max_classes=2)

_grid_cache: dict = {}


def _grid():
    # 24 configs: each family used as both the mono and the rainbow family.
    if not _grid_cache:
        for name, coeffs in GRID_FAMILIES:
            for policy in GRID_POLICIES:
                for mc in GRID_PALETTES:
                    cfg = SearchConfig(
                        mono_family=fam(*coeffs),
                        rainbow_family=fam(*coeffs, role="rainbow"),
                        d_policy=policy,
                        max_classes=mc,
                        n_limit=GRID_N_LIMIT,
                    )
                    _grid_cache[(name, policy, mc)] = (
                        cfg,
                        canonical_number(cfg),
                        naive_canonical_number(cfg),
                    )
    return _grid_cache


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_criterion_01_classical_recovery(tmp_path, capsys):
    mono = tmp_path / "mono.json"
    mono.write_text('{"polys": [[1], [2]], "role": "mono"}')
    t0 = time.perf_counter()
    base_args = ["number", "--mono", str(mono), "--no-rainbow", "--max-classes", "2"]
    code_fast = cli_main(base_args)
    out_fast = capsys.readouterr().out
    code_naive = cli_main(base_args + ["--naive"])
    out_naive = capsys.readouterr().out
    elapsed = time.perf_counter() - t0
    ok = (
        code_fast == 0
        and out_fast == "9\n"
        and code_naive == 0
        and out_naive == "9\n"
        and elapsed < 1.0
    )
    _line(1, ok, f"number=9 by both engines, {elapsed:.2f}s < 1.0s")
    assert ok, (code_fast, out_fast, code_naive, out_naive, elapsed)


def test_criterion_02_trivial_number():
    cfg = SearchConfig(mono_family=fam([1]), rainbow_family=fam([1], role="rainbow"))
    pruned = canonical_number(cfg)
    naive = naive_canonical_number(cfg)
    ok = (
        pruned.canonical_number == 2
        and naive.canonical_number == 2
        and pruned.wall_time < 0.5
        and naive.wall_time < 0.5
    )
    _line(2, ok, f"number=2 by both engines, {pruned.wall_time + naive.wall_time:.3f}s < 1.0s")
    assert ok, (pruned, naive)


def test_criterion_03_oracle_equivalence():
    violations = []
    for key, (cfg, pruned, naive) in _grid().items():
        if pruned.canonical_number != naive.canonical_number:
            violations.append((key, pruned.canonical_number, naive.canonical_number))
            continue
        k = len(naive.witness_free_per_length)
        if pruned.witness_free_per_length[:k] != naive.witness_free_per_length:
            violations.append((key, "per-length counts differ"))
    ok = not violations
    _line(3, ok, f"{len(_grid()) - len(violations)}/{len(_grid())} configs: pruned and naive agree")
    assert ok, violations


def test_criterion_04_pruning_soundness():
    checked = 0
    violations = []
    for (name, policy, mc), (cfg, pruned, _) in _grid().items():
        if mc is not None or pruned.canonical_number is None:
            continue
        number = pruned.canonical_number
        audited = canonical_number(replace(cfg, self_check=True))
        checked += 1
        if audited.canonical_number != number:
            violations.append((name, policy, "self-check changed the answer"))
        elif audited.witness_free_per_length[number - 1] != 0:
            violations.append((name, policy, "witness-free leaves at the canonical length"))
    ok = not violations and checked == 7
    _line(4, ok, f"{checked} unbounded-palette configs re-run with every prune re-verified")
    assert ok, (checked, violations)


def test_criterion_05_shift_threshold_closed_form():
    grown = fam([1, 1], [3, 1])
    squares = fam([0, 1])
    lines = fam([1], [2])
    ok = (
        h_value(grown) == 1
        and brute_force_shift_threshold(grown, cap=100) == 1
        and h_value(squares) == 0
        and brute_force_shift_threshold(squares, cap=100) == 0
        and h_value(lines) == 0
        and brute_force_shift_threshold(lines, cap=100) == 0
    )
    _line(5, ok, "h values 1/0/0 match the h'=1..100 brute force")
    assert ok


def test_criterion_06_weight_descent():
    rng = random.Random(606)
    produced = 0
    passed = 0
    violations = []
    for i in range(100):
        B = random_rainbow_family(rng, max_size=4, max_deg=3, coeff_abs=5)
        h = h_value(B)
        derived = bstar_family(B, h, h + 3)
        if not derived.polys:
            passed += 1  # nothing to compare, the claim is conditional
            continue
        produced += 1
        if weight_less(weight_vector(derived), weight_vector(B)):
            passed += 1
        else:
            violations.append((i, B.coeff_lists()))
    ok = passed == 100 and produced >= 50
    _line(6, ok, f"{passed}/100 families, weight drops on all {produced} nonempty derived families")
    assert ok, violations


def test_criterion_07_relabeling_and_monotonicity():
    rng = random.Random(707)
    A = fam([1], [2])
    B = fam([1], [2], role="rainbow")
    relabel_bad = mono_bad = rainbow_bad = 0
    mono_seen = rainbow_seen = 0
    for _ in range(1000):
        c = random_colouring(
            rng, rng.randint(1, 12), rng.randint(1, 2), rng.choice([None, 2, 3]), classes=4
        )
        cert = find_witness(c, A, B)
        other = find_witness(relabel(c, rng), A, B)
        if (cert is None) != (other is None):
            relabel_bad += 1
        elif cert is not None and (
            (cert.kind, cert.a, cert.d, cert.elements, cert.evidence)
            != (other.kind, other.a, other.d, other.elements, other.evidence)
        ):
            relabel_bad += 1

        merged = merge_two_classes(c, rng)
        if cert is not None and cert.kind == KIND_MONO:
            mono_seen += 1
            if is_monochromatic(merged, cert.elements) is None:
                mono_bad += 1

        coarse_cert = find_witness(merged, A, B)
        if coarse_cert is not None and coarse_cert.kind in (KIND_RAINBOW, KIND_FULLY_RAINBOW):
            rainbow_seen += 1
            if coarse_cert.kind == KIND_RAINBOW:
                if not is_rainbow(c, coarse_cert.elements):
                    rainbow_bad += 1
            elif is_fully_rainbow(c, coarse_cert.elements) != coarse_cert.evidence:
                rainbow_bad += 1
    ok = relabel_bad == 0 and mono_bad == 0 and rainbow_bad == 0
    ok = ok and mono_seen >= 200 and rainbow_seen >= 50
    _line(
        7,
        ok,
        f"1000 colourings: relabeling invariant, {mono_seen} mono witnesses survive "
        f"coarsening, {rainbow_seen} rainbow witnesses survive refinement",
    )
    assert ok, (relabel_bad, mono_bad, rainbow_bad, mono_seen, rainbow_seen)


def test_criterion_08_pigeonhole():
    rng = random.Random(808)
    good = 0
    violations = []
    for i in range(200):
        c, coll = pigeonhole_instance(rng)
        target = (c.m + 1) * (c.n or 0)
        if not validate_collection(c, coll):
            violations.append((i, "collection invalid"))
            continue
        if collection_norm(c, coll).norm != target:
            violations.append((i, "norm is not (m+1)n"))
            continue
        if any(is_rainbow(c, elems + (coll.focus,)) for _, elems in coll.members):
            good += 1
        else:
            violations.append((i, "no member extends the focus to a rainbow set"))
    ok = good == 200
    _line(8, ok, f"{good}/200 collections leave a member rainbow with the focus")
    assert ok, violations[:5]


def test_criterion_09_certificate_round_trip():
    violations = []
    certs = 0
    harvest = [(CLASSICAL, naive_canonical_number(CLASSICAL).canonical_number)]
    for cfg, _, naive in _grid().values():
        harvest.append((cfg, naive.canonical_number))
    for cfg, stop in harvest:
        stop = stop if stop is not None else cfg.n_limit
        for length in range(1, stop + 1):
            for col in enumerate_colourings(length, cfg.max_classes):
                cert = find_witness(
                    col, cfg.mono_family, cfg.rainbow_family, cfg.h, cfg.d_policy
                )
                if cert is None:
                    continue
                certs += 1
                if not verify_certificate(col, cert).ok:
                    violations.append(("accept", cert))
                    continue
                mutations = (
                    (replace(cert, elements=cert.elements[:-1] + (cert.elements[-1] + 1,)), "element mismatch"),
                    (replace(cert, a=cert.a + 1), "element mismatch"),
                    (replace(cert, digest="0" * 64), "digest mismatch"),
                )
                for mutated, reason in mutations:
                    verdict = verify_certificate(col, mutated)
                    if verdict.ok or verdict.reason != reason:
                        violations.append((reason, verdict, cert))
    ok = not violations and certs > 10_000
    _line(9, ok, f"{certs} certificates accepted, 3 mutations each rejected with exact reasons")
    assert ok, (certs, violations[:5])


def test_criterion_10_deterministic_reports(tmp_path, capsys):
    def family_file(name, f):
        path = tmp_path / name
        path.write_text(json.dumps({"polys": f.coeff_lists(), "role": f.role}))
        return str(path)

    violations = []
    configs = [CLASSICAL] + [cfg for cfg, _, _ in _grid().values()]
    for i, cfg in enumerate(configs):
        expected = run_report(cfg, canonical_number(cfg)).encode()
        argv = ["number", "--mono", family_file(f"mono{i}.json", cfg.mono_family)]
        if cfg.rainbow_family is None:
            argv.append("--no-rainbow")
        else:
            argv += ["--rainbow", family_file(f"rainbow{i}.json", cfg.rainbow_family)]
        argv += ["--d-policy", cfg.d_policy, "--h", str(cfg.h), "--n-limit", str(cfg.n_limit)]
        if cfg.max_classes is not None:
            argv += ["--max-classes", str(cfg.max_classes)]
        for workers in ("1", "2", "8"):
            report = tmp_path / f"report{i}.t{workers}.json"
            cli_main(argv + ["--threads", workers, "--out", str(report)])
            capsys.readouterr()
            if report.read_bytes() != expected:
                violations.append((cfg, workers))
    ok = not violations
    _line(10, ok, f"{len(configs)} configs: reports at --threads 1/2/8 match run_report byte for byte")
    assert ok, violations
