"""Fig. 3 — page load time & video startup delay vs load.

Paper: changing the serializer improves median video startup delay by
up to 37x and page load time by up to 3.2x at 180K-300K active users/s
(rates past the existing EPC's service-request saturation).  The shape
to reproduce: the EPC's startup/PLT explode once saturated while
Neutrino's stay flat at the app-constant floor.
"""

from repro.experiments import figures
from repro.experiments.report import format_dict_rows

from conftest import quick_spec

RATES = (180e3, 240e3, 300e3)


def run_fig03():
    return figures.fig03_plt_and_video(
        rates=RATES, spec=quick_spec(procedure="service_request")
    )


def test_fig03_plt_and_video(benchmark, print_series):
    rows = benchmark.pedantic(run_fig03, rounds=1, iterations=1)
    print_series(format_dict_rows(rows, "Fig. 3 — video startup & PLT"))

    by = {(r["scheme"], r["rate"]): r for r in rows}
    for rate in RATES:
        epc = by[("existing_epc", rate)]
        neutrino = by[("neutrino", rate)]
        # EPC saturated; Neutrino flat: both app metrics favor Neutrino.
        assert epc["video_startup_p50_s"] > neutrino["video_startup_p50_s"]
        assert epc["plt_p50_s"] > neutrino["plt_p50_s"]
        # the EPC is overloaded at every one of these rates; Neutrino
        # only approaches its own knee at the very top of the sweep.
        assert epc["est_rho"] > 1.0
        assert neutrino["est_rho"] < epc["est_rho"] * 0.6
    # the gap widens with load (paper's "up to" framing)
    gap_low = by[("existing_epc", RATES[0])]["video_startup_p50_s"]
    gap_high = by[("existing_epc", RATES[-1])]["video_startup_p50_s"]
    assert gap_high >= gap_low
    # At the paper's 60 s horizon the overloaded EPC's startup delay
    # extrapolates to tens of seconds while Neutrino stays near the
    # player constant — the paper's up-to-37x / 3.2x gaps ("up to" =
    # the best rate in the sweep).
    video_ratio = max(
        by[("existing_epc", r)]["est_video_startup_60s_s"]
        / by[("neutrino", r)]["est_video_startup_60s_s"]
        for r in RATES
    )
    plt_ratio = max(
        by[("existing_epc", r)]["est_plt_60s_s"] / by[("neutrino", r)]["est_plt_60s_s"]
        for r in RATES
    )
    print_series(
        "fig3 extrapolated 60s ratios: video %.0fx (paper: up to 37x), "
        "PLT %.1fx (paper: up to 3.2x)" % (video_ratio, plt_ratio)
    )
    assert video_ratio > 20
    assert plt_ratio > 2.5
