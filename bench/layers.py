"""Per-layer metrics and ROADMAP baseline rows from a traced run."""

from __future__ import annotations

import statistics

# name -> unit, in the order BENCHMARK.json lists them (the metric table
# of NOTES.md, top to bottom)
UNITS = {
    "poly.gcd.calls": "count", "poly.gcd.self_s": "s",
    "poly.gcd.max_degree": "deg", "poly.gcd.max_coeff_bits": "bits",
    "poly.mul.calls": "count", "poly.mul.self_s": "s",
    "poly.mul.max_degree": "deg", "poly.divmod.calls": "count",
    "poly.divmod.self_s": "s", "poly.pow.self_s": "s",
    "poly.init.calls": "count", "poly.init.self_s": "s",
    "poly.sqf.calls": "count", "poly.sqf.self_s": "s",
    "poly.eval.calls": "count", "poly.eval.self_s": "s",
    "definability.zero_set.self_s": "s",
    "fields.fp.calls": "count", "fields.fp.self_s": "s",
    "ratfun.init.calls": "count", "ratfun.init.self_s": "s",
    "ratfun.arith.calls": "count", "ratfun.arith.self_s": "s",
    "elliptic.on_curve.calls": "count", "elliptic.on_curve.self_s": "s",
    "elliptic.on_curve.share": "ratio", "elliptic.add.calls": "count",
    "elliptic.add.self_s": "s", "elliptic.max_deg_x": "deg",
    "definability.candidates": "count", "definability.evaluate.calls": "count",
    "definability.evaluate.self_s": "s",
    "definability.us_per_candidate": "us", "definability.hit_ratio": "ratio",
    "analytic.terms": "count", "analytic.eval_exact.self_s": "s",
    "analytic.series.self_s": "s", "analytic.interval.self_s": "s",
    "analytic.max_bits": "bits",
    "cli.build_parser.calls": "count", "cli.build_parser.self_s": "s",
    "cli.run.self_s": "s", "cli.render.self_s": "s",
    "textio.parse.calls": "count", "textio.parse.self_s": "s",
    "divisors.calls": "count", "divisors.self_s": "s",
    "definability.hermite.self_s": "s", "elliptic.fibers.self_s": "s",
    "verify.suite.self_s": "s",
    "trace.spans": "count", "trace.overhead_ratio": "ratio",
}

def per_layer(stats, tracer, plain, traced_tally):
    def field(name, key):
        return stats.get(name, {}).get(key, 0)

    def prefixed_sum(prefix, key):
        return sum(entry[key] for name, entry in stats.items()
                   if name.startswith(prefix + "."))

    values = {}
    for metric, unit in UNITS.items():
        layer, _, key = metric.rpartition(".")
        if key not in ("calls", "self_s"):
            continue
        if layer == "divisors":
            values[metric] = prefixed_sum("divisors", key)
        elif layer == "textio.parse" and key == "calls":
            # every text input goes through one of these two
            values[metric] = (field("textio.parse_ratfun", "calls")
                              + field("textio.parse_rational", "calls"))
        elif layer == "textio.parse":
            values[metric] = prefixed_sum("textio", "self_s")
        else:
            values[metric] = field(layer, key)

    counters = tracer.counters
    for key in ("poly.gcd.max_degree", "poly.gcd.max_coeff_bits",
                "poly.mul.max_degree", "elliptic.max_deg_x",
                "definability.candidates", "analytic.terms",
                "analytic.max_bits"):
        values[key] = counters[key]
    candidates = counters["definability.candidates"]
    values["definability.us_per_candidate"] = (
        field("definability.enumerate_slice", "total_s") / candidates * 1e6
        if candidates else 0.0)
    values["definability.hit_ratio"] = (
        counters["definability.solutions"] / candidates if candidates else 0.0)
    values["elliptic.on_curve.share"] = (
        field("elliptic.on_curve", "total_s") / traced_tally.busy)
    values["trace.spans"] = len(tracer.span_name)
    # traced / untraced jobs per second over the same jobs
    values["trace.overhead_ratio"] = plain.busy / traced_tally.busy
    return {name: {"value": values[name], "unit": unit}
            for name, unit in UNITS.items()}


def _median_ms(tally, tag):
    values = [t for t, g in zip(tally.latencies, tally.tags) if g == tag]
    return statistics.median(values) * 1e3 if values else None


def roadmap_rows(workload, stats, tracer, dur, root, plain, traced_tally):
    """The ROADMAP baseline rows that fall inside this workload."""
    rows = []
    if workload == "ec-heights":
        for n, baseline in ((8, 6), (12, 34), (16, 75), (20, 390)):
            ms = _median_ms(plain, f"ref-n{n}")
            rows.append(f"ec_multiply n={n}: {ms:.1f} ms untraced "
                        f"(ROADMAP {baseline} ms)")
        k4 = {sid for sid, tag in zip(traced_tally.span_ids, traced_tally.tags)
              if tag == "ref-k4"}
        per_job = 1e3 / len(k4)
        k4_ms = sum(dur[sid] for sid in k4) / 1e9 * per_job
        on_curve = tracer.within(dur, root, "elliptic.on_curve", k4) * per_job
        doubling = tracer.within(dur, root, "elliptic.add", k4) * per_job
        rows.append(f"k=4 height job: {_median_ms(plain, 'ref-k4'):.0f} ms "
                    f"untraced (ROADMAP 530 ms); traced, per job, on_curve "
                    f"{on_curve:.0f} ms vs doublings {doubling:.0f} ms of "
                    f"{k4_ms:.0f} ms (ROADMAP 500 ms vs 84 ms)")
        add_total = stats.get("elliptic.add", {}).get("total_s", 0)
        gcd_in_add = tracer.nested_total(dur, "poly.gcd", "elliptic.add")
        rows.append(f"gcd share of group-law steps: {gcd_in_add:.3f} s of "
                    f"{add_total:.3f} s = {gcd_in_add / add_total:.0%} "
                    f"(ROADMAP: gcd dominates doublings)")
    if workload == "fp-slicer":
        ms = _median_ms(plain, "square-a6b5")
        if ms is not None:
            rows.append(f"F_2 x=y^2 slice alpha=6 beta=5: {ms:.0f} ms "
                        f"untraced = {ms * 1e3 / 8192:.1f} us per candidate "
                        f"(ROADMAP 0.42 s, ~50 us)")
    return rows
