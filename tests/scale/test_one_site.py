"""One site, both executors: the lane schedules the components' own methods.

Each protocol rule is one method on the component that owns the state
(DESIGN §5).  ``UE.execute`` reaches it when a ``Server`` job completes,
the batched lane at the job's analytic instant — so a spy on the method
must count the same calls under either driver, and breaking the method
must break both.  The second half is the regression test for "the lane
has its own audit hook", and the patch point protocol mutants use.

The obs counters obey the same rule: ``cta_messages`` / ``cta_log_bytes``
are bumped in ``CTA.log_uplink`` and ``cpf_messages`` in ``CPF.serve``,
not in the event wrappers around them, so ``--obs metrics`` counts a
message the lane served exactly like one the discrete path served.
"""

from repro.core.cpf import CPF
from repro.core.cta import CTA
from repro.core.upf import UPF
from repro.obs import Observability
from repro.scale.engine import _Engine
from repro.scale.scenarios import get_scenario

SITES = (
    (CPF, "serve"),
    (CTA, "log_uplink"),
    (UPF, "apply"),
    (CPF, "install_checkpoint"),
)


def run(mode, obs=None):
    spec = get_scenario("steady-city").with_overrides(
        n_ue=400, duration_s=0.5, seed=3
    )
    engine = _Engine(spec, mode=mode, obs=obs)
    return engine, engine.run()


def spy_on(monkeypatch):
    counts = {}
    for cls, name in SITES:
        key = "%s.%s" % (cls.__name__, name)
        counts[key] = 0

        def counted(self, *args, _inner=getattr(cls, name), _key=key, **kwargs):
            counts[_key] += 1
            return _inner(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, counted)
    return counts


def test_same_calls_under_cohort_and_batched(monkeypatch):
    counts = spy_on(monkeypatch)
    per_mode = {}
    for mode in ("cohort", "batched"):
        for key in counts:
            counts[key] = 0
        engine, result = run(mode)
        per_mode[mode] = dict(counts)
        appended = sum(cta.log.appended for cta in engine.dep.ctas.values())
        assert counts["CPF.serve"] == result.serves == engine.dep.auditor.serves
        assert counts["CTA.log_uplink"] == appended
        assert result.violations == 0
    assert per_mode["batched"] == per_mode["cohort"]
    assert all(per_mode["cohort"].values()), per_mode
    assert result.lane["admitted"] > 0, "nothing exercised the lane"
    assert result.lane["gate_misses"] == 0


def test_skipping_the_audit_hook_blinds_both_executors(monkeypatch):
    """A ``CPF.serve`` that never tells the auditor: no executor may."""

    def deaf_serve(self, ue_id, reader_version, clock, creates_state, span=None):
        self.messages_handled += 1
        entry = self.store.get(ue_id)
        assert entry is not None and not creates_state  # warm steady city
        entry.state.apply_message()
        entry.synced_clock = max(entry.synced_clock, clock)
        return entry.state.version

    monkeypatch.setattr(CPF, "serve", deaf_serve)
    for mode in ("cohort", "batched"):
        engine, result = run(mode)
        assert result.completed > 0
        assert engine.dep.auditor.serves == 0, mode
        if mode == "batched":
            assert result.lane["admitted"] > 0


def test_obs_counters_see_lane_messages():
    """Metrics mode keeps the lane, and the lane feeds every counter."""
    per_mode = {}
    for mode in ("cohort", "batched"):
        obs = Observability("metrics")
        engine, result = run(mode, obs=obs)
        metrics = obs.metrics.snapshot()
        counters = {
            (c["name"], tuple(sorted(c["labels"].items()))): c["value"]
            for c in metrics["counters"]
        }
        log_bytes = {
            g["labels"]["node"]: g["last"]
            for g in metrics["gauges"] if g["name"] == "cta_log_bytes"
        }
        per_mode[mode] = (counters, log_bytes)
        names = {name for name, _ in counters}
        assert {"hop_messages", "hop_bytes", "cta_messages", "cpf_messages"} <= names
        assert log_bytes
        hops = sum(v for (name, _), v in counters.items() if name == "hop_messages")
        assert hops == sum(l.messages_sent for l in engine.dep.links.values())
        served = sum(v for (name, _), v in counters.items() if name == "cpf_messages")
        assert served == result.serves
    assert per_mode["batched"] == per_mode["cohort"]
    assert result.lane["admitted"] > 0, "nothing exercised the lane"
    assert result.lane["gate_misses"] == 0
