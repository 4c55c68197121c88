"""Walk through the three core metrics on small literal numbers.

Shows how the per-stat risk statistic reacts to load above and below the
baseline threshold, what the ops-quality ratio says about request sizes,
and why the dispersion measure is scale-free.
"""

from lassi.metrics import FsBaseline, ops_quality, risk_mds, risk_oss, risk_stat, rsd
from lassi.model import ALL_FIELDS
from lassi.timeutil import parse_utc

HOUR = 3600


def counters(**by_name: int) -> tuple[int, ...]:
    """The 21-counter vector (ALL_FIELDS order) with the named stats set."""
    return tuple(by_name.get(stat, 0) for stat in ALL_FIELDS)


def named(vec: tuple[int, ...]) -> dict[str, int]:
    """The non-zero counters of a vector, by name."""
    return {stat: v for stat, v in zip(ALL_FIELDS, vec) if v}


def show_risk_stat() -> None:
    print("== risk_stat(x, mean, alpha) ==")
    print("baseline mean 1000 KiB/h, alpha 2 puts the threshold at 2000:")
    for x in (500, 2000, 4000, 10000):
        r = risk_stat(x, 1000, alpha=2.0)
        print(f"  x={x:>6} -> {r:+.2f}")
    print("zero mean with zero load is no risk; with load it is undefined:")
    print(f"  risk_stat(0, 0)  -> {risk_stat(0, 0)}")
    print(f"  risk_stat(50, 0) -> {risk_stat(50, 0)}")
    print()


def show_summed_risk() -> None:
    print("== summed filesystem risk ==")
    means = {stat: 1000.0 for stat in ALL_FIELDS}
    baseline = FsBaseline(
        fs_id="fs2",
        period=(parse_utc("2017-10-09T00:00:00Z"), parse_utc("2017-10-10T00:00:00Z")),
        alpha=2.0,
        means=means,
    )
    vec = counters(read_kb=10000, read_ops=500, write_kb=1500, open=8000, getattr=2500)
    breakdown = risk_oss(vec, baseline)
    print(f"counters: {named(vec)}")
    print(f"summed OSS risk {breakdown.value:.2f} over the five data statistics; only")
    print(f"the statistic over threshold contributes: {breakdown.contributions}")
    print(f"summed MDS risk {risk_mds(vec, baseline).value:.2f} over the sixteen metadata ones")
    print()


def show_ops_quality() -> None:
    print("== ops quality (KiB moved per operation, scaled so 1.0 = 1 MiB) ==")
    cases = [
        ("1 MiB per read", counters(read_kb=10240, read_ops=10)),
        ("4 KiB per read", counters(read_kb=40, read_ops=10)),
        ("no reads at all", counters(write_kb=100, write_ops=1)),
        ("ops moving zero bytes", counters(read_ops=10)),
    ]
    for label, vec in cases:
        rec = ops_quality(vec)
        print(f"  {label:<22} read_kb_ops={rec.read_kb_ops}")
    print("values above 1.0 mean the metadata cost dominates the data moved")
    print()


def show_rsd() -> None:
    print("== relative standard deviation ==")
    runtimes = [3600, 3700, 3550, 3650]
    print(f"steady runtimes  {runtimes} -> rsd {rsd(runtimes):.4f}")
    runtimes = [3600, 3700, 3550, 9000]
    print(f"one slow outlier {runtimes} -> rsd {rsd(runtimes):.4f}")
    doubled = [2 * r for r in runtimes]
    print(f"doubling every value leaves it unchanged: {rsd(doubled):.4f}")


def main() -> None:
    show_risk_stat()
    show_summed_risk()
    show_ops_quality()
    show_rsd()


if __name__ == "__main__":
    main()
