"""One set-up or one timed pass of a benchmark workload, in a fresh interpreter.

run.py starts this script once per set-up and once per pass:

    python3 bench/worker.py --workload NAME --role setup|pass --work DIR
                            --seed N [--trace FILE]

``DIR/cache`` is the rule-cache directory.  The last line of standard
output is one JSON object: the pass time (from before rdpinv is imported
to the end of the last operation), the process's own peak RSS, one
[name, seconds, error] entry per operation, and the results of the output
checks and negative controls, which run after the clock stops.

Times are in reference seconds (see ``clock.py``); traced passes take no
calibration samples and report raw wall time.
"""

import argparse
import contextlib
import io
import json
import random
import resource
import sys
import traceback
from pathlib import Path

import reference as ref
from clock import SpeedClock

JET_ORDER = 10
#: per normal form: random invertible linear changes, and random triangular
#: polynomial automorphisms composed with a linear change
LINEAR_CHANGES = 2
TRIANGULAR_CHANGES = 2
#: E6 coordinates of the Weyl workload; eps9 (~19 s) and eps12 (~200 s)
#: are left out to keep a run within its time budget
WEYL_E6 = ("eps2", "eps5", "eps6", "eps8")
WEYL_CLOSED_FORMS = ("D4", "D5", "E4", "E5")
#: the closed-form checks take milliseconds each; three rounds give each
#: of them a median
WEYL_CLOSED_FORM_ROUNDS = 3


class Pass:
    """Times operations, records failures, and collects checks."""

    def __init__(self, clock: SpeedClock, tracer=None):
        self.clock = clock
        self.tracer = tracer
        self.ops: list[list] = []
        self.checks: list[list] = []
        self.controls: list[list] = []
        #: end of the last operation; checks that follow are not timed
        self.end = clock.now()

    def op(self, name: str, fn, variant: str = "key"):
        if self.tracer is not None:
            self.tracer.variant = variant
            idx = self.tracer.open(f"op.{name}")
        start = self.clock.now()
        try:
            out, err = fn(), None
        except Exception as exc:  # an operation that fails is counted, not fatal
            out, err = None, f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        self.end = self.clock.now()
        if self.tracer is not None:
            self.tracer.close(idx)
        self.ops.append([name, (start, self.end), err])
        return out

    def check(self, label: str, fn, *needs) -> None:
        """Record ``fn()``; skipped when an operation it needs has failed."""
        if all(n is not None for n in needs):
            self.checks.append([label, bool(fn())])

    def control(self, label: str, passes_check: bool) -> None:
        """A negative control trips when its check rejects the bad input."""
        self.controls.append([label, not passes_check])


# -- workloads --------------------------------------------------------------------


def pipeline_cold(p: Pass, cache_dir: Path) -> None:
    from rdpinv import congruence
    from rdpinv.distpoly import split_params_E
    from rdpinv.envres import VersalPipeline, good_gens_bar, pipeline_table
    from rdpinv.poly import parse
    from rdpinv.solvelist import RuleCache

    cache = RuleCache(cache_dir)
    plain = {n: p.op(f"E{n}", lambda n=n: VersalPipeline(n, cache=cache).versal_rules())
             for n in (6, 7, 8)}
    split = {}
    for side, param in zip(("plain", "moved"), split_params_E(6)):
        split[side] = p.op(f"E6s-{side}",
                           lambda param=param: VersalPipeline(6, param=param, cache=cache).versal_rules(),
                           f"E6s-{side}")
    keys = {}
    for label, *_ in ref.KEY_ROWS:
        keys[label] = p.op(label, lambda label=label: congruence.key_constant(
            congruence.key_case(label), cache))

    gold1, gold2 = ref.golden_texts("appendix1"), ref.golden_texts("appendix2")
    t6, t7, t8 = (pipeline_table(n) for n in (6, 7, 8))
    p.check("E6 matches appendix 1", lambda: ref.matches_golden(
        plain[6].mapping(), gold1, t6, parse), plain[6])
    p.check("E7 matches appendix 2", lambda: ref.matches_golden(
        plain[7].mapping(), gold2, t7, parse), plain[7])

    def e8_generators():
        gens = good_gens_bar(8)
        return ref.matches_golden({"Wb": gens.Wb, "Zb": gens.Zb, "Yb": gens.Yb},
                                  ref.golden_texts("appendix0"), t8, parse)

    p.check("E8 sextic matches appendix 0", e8_generators, plain[8])
    p.check("E8 eps30 within the published term bound", lambda: 0 < plain[8]["eps30"].term_count()
            <= ref.E8_EPS30_MAX_TERMS, plain[8])
    p.check("E6 split plain equals split moved", lambda: all(
        split["plain"][nm] == split["moved"][nm] for nm in gold1), split["plain"], split["moved"])
    for label, _, _, _, consts, _ in ref.KEY_ROWS:
        p.check(f"key constant {label}", lambda label=label, consts=consts:
                keys[label].computed == consts, keys[label])

    bad = dict(gold1, eps5=(gold1["eps5"][0], ref.perturb_first_coefficient(gold1["eps5"][1])))
    if plain[6] is not None:
        p.control("appendix 1 with one eps5 coefficient changed",
                  ref.matches_golden(plain[6].mapping(), bad, t6, parse))


def _cli(cache_dir: Path, *argv: str):
    from rdpinv import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["--cache-dir", str(cache_dir), *argv])
    return code, buf.getvalue()


def rerun_warm(p: Pass, cache_dir: Path) -> None:
    from rdpinv.distpoly import split_params_E
    from rdpinv.envres import VersalPipeline, pipeline_table
    from rdpinv.poly import parse
    from rdpinv.solvelist import RuleCache

    reports = {}
    for target, lines in (("appendix0", 3), ("appendix1", 6), ("appendix2", 7)):
        reports[target] = (p.op(f"verify-{target}", lambda t=target: _cli(cache_dir, "verify", t)),
                           lines)
    keys = p.op("congruence-all", lambda: _cli(cache_dir, "congruence", "--all", "--jobs", "1"))
    split = {}
    for side, param in zip(("plain", "moved"), split_params_E(6)):
        split[side] = p.op(
            f"E6s-{side}",
            lambda param=param: VersalPipeline(6, param=param, cache=RuleCache(cache_dir)).versal_rules(),
            f"E6s-{side}")

    for target, (out, lines) in reports.items():
        p.check(f"verify {target} exits 0, all PASS", lambda out=out, lines=lines:
                out[0] == 0 and ref.verify_report_ok(out[1], lines), out)
    p.check("congruence --all prints the tabulated constants", lambda:
            keys[0] == 0 and ref.congruence_report_ok(keys[1]), keys)
    p.check("E6 split plain equals split moved", lambda: all(
        split["plain"][nm] == split["moved"][nm] for nm in ref.golden_texts("appendix1")),
        split["plain"], split["moved"])
    # the cached coordinates themselves, compared outside the CLI
    gold2 = ref.golden_texts("appendix2")
    cached = {n: VersalPipeline(n, cache=RuleCache(cache_dir)).versal_rules().mapping()
              for n in (6, 7)}
    p.check("cached E6 matches appendix 1", lambda: ref.matches_golden(
        cached[6], ref.golden_texts("appendix1"), pipeline_table(6), parse))
    p.check("cached E7 matches appendix 2", lambda: ref.matches_golden(
        cached[7], gold2, pipeline_table(7), parse))

    bad = dict(gold2, eps10=(gold2["eps10"][0], ref.perturb_first_coefficient(gold2["eps10"][1])))
    p.control("appendix 2 with one eps10 coefficient changed",
              ref.matches_golden(cached[7], bad, pipeline_table(7), parse))


def weyl_e6(p: Pass, cache_dir: Path) -> None:
    from rdpinv.distpoly import invariant_under_literal, standard_coords
    from rdpinv.envres import VersalPipeline, pipeline_table
    from rdpinv.poly import parse
    from rdpinv.rootsys import Spec
    from rdpinv.solvelist import RuleCache

    e6 = Spec("E", 6)
    results = []
    for _ in range(WEYL_CLOSED_FORM_ROUNDS):
        for name in WEYL_CLOSED_FORMS:
            spec = Spec.from_name(name)
            generator = spec.n if spec.family == "D" else 0
            for cname, phi in standard_coords(spec).items():
                results.append((f"{name}.{cname}", p.op(
                    f"{name}.{cname}", lambda spec=spec, phi=phi, g=generator:
                    invariant_under_literal(spec, phi, g, reduce_back=True))))
    rules = VersalPipeline(6, cache=RuleCache(cache_dir)).versal_rules()
    for nm in WEYL_E6:
        results.append((f"E6.{nm}", p.op(f"E6.{nm}", lambda nm=nm: invariant_under_literal(
            e6, rules[nm], 0, reduce_back=True))))

    for label, ok in results:
        p.check(f"{label} is Weyl invariant", lambda ok=ok: ok is True, ok)
    table = pipeline_table(6)
    p.check("cached E6 matches appendix 1", lambda: ref.matches_golden(
        rules.mapping(), ref.golden_texts("appendix1"), table, parse))
    # E6 has no invariant of weight 1
    p.control("s1 as an E6 coordinate",
              invariant_under_literal(e6, parse("s1", table), 0, reduce_back=True))


def classify_battery(seed: int) -> list[dict]:
    """Normal forms moved by seeded coordinate changes, truncated at the jet order.

    Every coefficient drawn is nonzero, so the changes are generic and the
    cost of a battery hardly depends on the seed.
    """
    from rdpinv.poly import VarTable, parse

    rng = random.Random(seed)
    table = VarTable(["X", "Y", "Z"], [1, 1, 1])
    X, Y, Z = (table.var(v) for v in "XYZ")

    def linear():
        while True:
            M = [[rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(3)] for _ in range(3)]
            det = (M[0][0] * (M[1][1] * M[2][2] - M[1][2] * M[2][1])
                   - M[0][1] * (M[1][0] * M[2][2] - M[1][2] * M[2][0])
                   + M[0][2] * (M[1][0] * M[2][1] - M[1][1] * M[2][0]))
            if det:
                break
        return {v: M[i][0] * X + M[i][1] * Y + M[i][2] * Z for i, v in enumerate("XYZ")}

    def coeff() -> int:
        return rng.choice((-2, -1, 1, 2))

    def triangular():
        a = sum((coeff() * m for m in (Y**2, Y*Z, Z**2, Y**3, Y**2*Z, Y*Z**2, Z**3)), table.zero())
        b = sum((coeff() * m for m in (Z**2, Z**3)), table.zero())
        return {"X": X + a, "Y": Y + b}

    out = []
    for form, want in ref.NORMAL_FORMS:
        f = parse(form, table)
        for kind, count in (("linear", LINEAR_CHANGES), ("triangular", TRIANGULAR_CHANGES)):
            for _ in range(count):
                g = f.substitute(triangular(), max_total_degree=JET_ORDER) if kind == "triangular" else f
                g = g.substitute(linear(), max_total_degree=JET_ORDER)
                out.append({"form": form, "want": want, "kind": kind, "poly": g.serialize()})
    # interleave the normal forms, so that forms of similar cost do not all
    # run inside the same few seconds of the host's speed drift
    rng.shuffle(out)
    return out


def classify_pass(p: Pass, work: Path) -> None:
    from rdpinv import classify
    from rdpinv.poly import VarTable, parse

    table = VarTable(["X", "Y", "Z"], [1, 1, 1])
    battery = json.loads((work / "battery.json").read_text())
    polys = [parse(item["poly"], table) for item in battery]
    for i, (item, g) in enumerate(zip(battery, polys)):
        got = p.op(f"rdp_type.{i}", lambda g=g: classify.rdp_type(g, jet_order=JET_ORDER).name)
        p.check(f"{item['kind']} change of {item['form']} is {item['want']}",
                lambda got=got, want=item["want"]: got == want, got)
    for label, _, target, degree, _, column in ref.KEY_ROWS:
        profile = classify.ValuationProfile(f"E{label[1]}", {target: degree})
        got = p.op(f"section_type.{label}", lambda profile=profile: classify.section_type(profile).column)
        p.check(f"section bound of {label} is {column}", lambda got=got, column=column:
                got == column, got)

    d5 = classify.rdp_type(parse("-X^2 - Y^2*Z + Z^4", table), jet_order=JET_ORDER).name
    p.control("D5 normal form expected as D4", d5 == "D4")


# -- entry point --------------------------------------------------------------------


def run_pass(workload: str, work: Path, clock: SpeedClock, tracer) -> Pass:
    p = Pass(clock, tracer)
    if workload == "pipeline-cold":
        pipeline_cold(p, work / "cache")
    elif workload == "rerun-warm":
        rerun_warm(p, work / "cache")
    elif workload == "weyl-e6":
        weyl_e6(p, work / "cache")
    else:
        classify_pass(p, work)
    return p


def run_setup(workload: str, work: Path, seed: int, clock: SpeedClock) -> Pass:
    """Set-up: rerun-warm runs its own pass once on an empty cache, which
    fills it; weyl-e6 fills the cache with the E6 pipeline; classify builds
    its battery; pipeline-cold only imports rdpinv, its pass starts cold."""
    cache_dir = work / "cache"
    p = Pass(clock)
    if workload == "rerun-warm":
        rerun_warm(p, cache_dir)
        return p
    if workload == "weyl-e6":
        from rdpinv.envres import VersalPipeline
        from rdpinv.solvelist import RuleCache

        VersalPipeline(6, cache=RuleCache(cache_dir)).versal_rules()
    elif workload == "classify":
        (work / "battery.json").write_text(json.dumps(classify_battery(seed)))
    p.end = clock.now()
    return p


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["pipeline-cold", "rerun-warm", "weyl-e6", "classify"])
    ap.add_argument("--role", required=True, choices=["setup", "pass"])
    ap.add_argument("--work", required=True, type=Path)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", default="")
    args = ap.parse_args(argv)

    clock = SpeedClock(sampling=not args.trace)
    clock.start()
    t0 = clock.now()
    import rdpinv.cli  # noqa: F401  (imports every layer)

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    if args.role == "setup":
        p = run_setup(args.workload, args.work, args.seed, clock)
    else:
        p = run_pass(args.workload, args.work, clock, tracer)
    clock.stop()
    if tracer is not None:
        tracer.write_jsonl(Path(args.trace))
    # the pass time is scaled piecewise: the lead-in, each operation, each gap
    points = [t0] + [t for _, span, _ in p.ops for t in span]
    if points[-1] != p.end:
        points.append(p.end)
    print(json.dumps({
        "pass_s": sum(clock.scaled(a, b) for a, b in zip(points, points[1:])),
        "raw_pass_s": p.end[0] - t0[0],
        "speed": clock.speed(),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops": [[name, clock.scaled(*span), err] for name, span, err in p.ops],
        "checks": p.checks,
        "controls": p.controls,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
