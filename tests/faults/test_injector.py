"""FaultInjector + Link fault mechanics: drops, duplicates, reorders,
retransmission exhaustion, blackholes, partitions, and the op guards."""

import pytest

from repro.core import ControlPlaneConfig, Deployment
from repro.faults import (
    EventTrace,
    FaultEvent,
    FaultInjector,
    FaultOp,
    FaultPlan,
    region_of,
)
from repro.obs import Observability
from repro.sim import Event, Link, LinkDown, Simulator
from repro.sim.node import NodeFailed
from repro.sim.rng import RngRegistry


class FixedRng:
    """random.Random stand-in returning a scripted sequence (then 1.0)."""

    def __init__(self, *values):
        self._values = list(values)

    def random(self):
        return self._values.pop(0) if self._values else 1.0


def make_dep(sim=None, **kwargs):
    sim = sim or Simulator()
    dep = Deployment.build_grid(
        sim,
        ControlPlaneConfig.neutrino(),
        cpfs_per_region=kwargs.pop("cpfs_per_region", 2),
        bss_per_region=kwargs.pop("bss_per_region", 2),
        regions=kwargs.pop("regions", 2),
        rng=RngRegistry(0),
    )
    return sim, dep


class TestRegionOf:
    def test_node_names(self):
        assert region_of("cpf-20-0") == "20"
        assert region_of("cta-21") == "21"
        assert region_of("bs-20-1") == "20"

    def test_degenerate(self):
        assert region_of(None) is None
        assert region_of("") is None
        assert region_of("upf") is None


class TestLinkTransit:
    def test_clean_path_matches_plain_delay(self):
        link = Link(Simulator(), 1e-4)
        transit = link.transit(128)
        assert transit.delay == link.delay(128)
        assert not transit.perturbed

    def test_blackholed_link_loses_messages(self):
        link = Link(Simulator(), 1e-4)
        link.up = False
        transit = link.transit(10)
        assert transit.lost
        assert link.dropped == 1

    def test_drop_retransmits_until_delivery(self):
        link = Link(Simulator(), 1e-4)
        # two drops, then delivery (0.0 < drop_p twice, then 1.0)
        link.set_faults(drop_p=0.5, rng=FixedRng(0.0, 0.0))
        transit = link.transit(0)
        assert not transit.lost
        assert transit.retransmits == 2
        assert transit.delay == pytest.approx(link.latency_s + 2 * link.effective_rto())
        assert link.retransmits == 2

    def test_drop_budget_exhaustion_is_lost(self):
        link = Link(Simulator(), 1e-4)
        link.set_faults(drop_p=0.5, rng=FixedRng(*([0.0] * 20)), max_retx=3)
        transit = link.transit(0)
        assert transit.lost
        assert transit.retransmits == 3
        assert link.dropped == 1

    def test_duplicate_and_reorder_counters(self):
        link = Link(Simulator(), 1e-4)
        # dup draw 0.0 < 0.9, reorder draw 0.0 < 0.9, spread draw 0.5
        link.set_faults(dup_p=0.9, reorder_p=0.9, rng=FixedRng(0.0, 0.0, 0.5))
        transit = link.transit(100)
        assert transit.duplicated and transit.reordered
        assert link.duplicated == 1 and link.reordered == 1
        assert link.messages_sent == 2  # the copy consumes link resources
        assert transit.delay > link.latency_s

    def test_extra_delay_applied(self):
        link = Link(Simulator(), 1e-4)
        link.set_faults(extra_delay_s=5e-4)
        assert link.transit(0).delay == pytest.approx(link.latency_s + 5e-4)

    def test_clear_faults_restores_clean_path(self):
        link = Link(Simulator(), 1e-4)
        link.set_faults(drop_p=0.5, rng=FixedRng())
        link.clear_faults()
        assert not link.faulty
        assert not link.transit(0).perturbed

    def test_effective_rto_floor_and_override(self):
        link = Link(Simulator(), 1e-6)
        assert link.effective_rto() == 1e-4  # floor
        link.rto_s = 3e-3
        assert link.effective_rto() == 3e-3


def assert_lost(wait):
    """A lost message is an event already failed with LinkDown."""
    assert isinstance(wait, Event) and wait.fired and not wait.ok
    with pytest.raises(LinkDown):  # LinkDown IS-A NodeFailed: recovery applies
        _ = wait.value


class TestTransitEvent:
    """Contract since PR 21: a delivered message is its ``float`` delay,
    a lost one a fired failed ``Event``.  (PR <= 20: always an
    ``Event`` — a pending ``Timeout`` for every delivered message.)"""

    def test_clean_message_is_its_delay(self):
        sim, dep = make_dep()
        injector = FaultInjector(dep, FaultPlan(seed=0)).install()
        link = dep.links["cta_cpf"]
        wait = injector.transit_event(link, 64)
        assert type(wait) is float and wait == link.delay(64)
        assert (link.messages_sent, link.bytes_sent) == (1, 64)
        assert len(injector.trace) == 0 and sim._seq == 0

    def test_verbose_trace_records_msg_at_send_instant(self):
        sim, dep = make_dep()
        trace = EventTrace(verbose=True)
        injector = FaultInjector(dep, FaultPlan(seed=0), trace=trace).install()
        link = dep.links["cta_cpf"]
        sim.run(until=0.25)
        wait = injector.transit_event(link, 64)
        assert type(wait) is float and wait == link.delay(64)
        assert link.messages_sent == 1
        (record,) = trace.records
        assert (record.time, record.kind) == (0.25, "msg")
        assert dict(record.detail) == {"hop": link.name, "nbytes": 64}

    def test_perturbed_message_is_its_computed_delay(self):
        sim, dep = make_dep()
        injector = FaultInjector(dep, FaultPlan(seed=0)).install()
        link = dep.links["cta_cpf"]
        # one drop (0.0 < drop_p), then delivery
        link.set_faults(drop_p=0.5, extra_delay_s=5e-4, rng=FixedRng(0.0))
        wait = injector.transit_event(link, 0)
        assert type(wait) is float
        assert wait == pytest.approx(link.latency_s + link.effective_rto() + 5e-4)
        assert injector.trace.kinds() == {"msg_perturbed": 1}
        assert link.retransmits == 1 and injector.messages_lost == 0

    def test_lost_message_fails_event_with_linkdown(self):
        sim, dep = make_dep()
        plan = FaultPlan(seed=3)
        plan.perturb("cta_cpf", drop_p=0.9, rto_s=1e-5, max_retx=0)
        injector = FaultInjector(dep, plan).install()
        link = dep.links["cta_cpf"]
        # drive until a loss occurs (seeded, so bounded and deterministic)
        for _ in range(50):
            wait = injector.transit_event(link, 64)
            if type(wait) is not float:
                break
        else:
            pytest.fail("0.9 drop never exhausted a zero-retx budget in 50 tries")
        assert_lost(wait)
        assert issubclass(LinkDown, NodeFailed)
        assert injector.messages_lost >= 1
        assert "msg_lost" in injector.trace.kinds()

    def test_blackholed_link_loses_every_message(self):
        _, dep = make_dep()
        injector = FaultInjector(dep, FaultPlan(seed=0)).install()
        injector.fire(FaultOp(op="blackhole", target="bs_cta"))
        link = dep.links["bs_cta"]
        assert_lost(injector.transit_event(link, 64))
        assert (link.messages_sent, link.dropped, injector.messages_lost) == (1, 1, 1)
        assert injector.trace.kinds()["msg_lost"] == 1
        injector.fire(FaultOp(op="restore", target="bs_cta"))
        assert type(injector.transit_event(link, 64)) is float

    def test_partition_drops_only_cross_group_messages(self):
        sim, dep = make_dep()
        injector = FaultInjector(dep, FaultPlan(seed=0)).install()
        injector.fire(FaultOp(op="partition", target="20|21"))
        link = dep.links["cpf_cpf_inter"]
        assert_lost(injector.transit_event(link, 64, src="cpf-20-0", dst="cpf-21-0"))
        assert injector.partition_drops == 1
        assert injector.trace.kinds()["partition_drop"] == 1
        # same-group and unknown endpoints pass
        delay = link.delay(64)
        assert injector.transit_event(link, 64, src="cpf-20-0", dst="cpf-20-1") == delay
        assert injector.transit_event(link, 64) == delay
        injector.fire(FaultOp(op="heal"))
        assert injector.transit_event(link, 64, src="cpf-20-0", dst="cpf-21-0") == delay
        assert link.messages_sent == 4 and link.dropped == 1

    def test_bad_partition_target_rejected(self):
        _, dep = make_dep()
        injector = FaultInjector(dep, FaultPlan()).install()
        with pytest.raises(ValueError):
            injector.fire(FaultOp(op="partition", target="20"))


def _clean(injector):
    pass


def _perturbed(injector):
    injector.dep.links["cpf_cpf_inter"].set_faults(extra_delay_s=5e-4)


def _blackholed(injector):
    injector.fire(FaultOp(op="blackhole", target="cpf_cpf_inter"))


def _partitioned(injector):
    injector.fire(FaultOp(op="partition", target="20|21"))


class TestDeploymentHop:
    """The injector's answer as is, observed or not: everything about a
    traversal is known at the send instant, so with obs installed the
    hop span is already closed when ``hop`` returns."""

    ENDS = dict(src="cpf-20-0", dst="cpf-21-0")

    def _hop(self, condition, observed):
        sim, dep = make_dep()
        if condition is not None:  # None: no injector installed at all
            condition(FaultInjector(dep, FaultPlan(seed=0)).install())
        root = None
        if observed:
            root = Observability("trace").install(dep).tracer.begin("proc.test")
        sim.run(until=0.5)
        wait = dep.hop("cpf_cpf_inter", 64, parent=root, **self.ENDS)
        return sim, dep, root, wait

    @pytest.mark.parametrize(
        "condition, extra", [(None, 0.0), (_clean, 0.0), (_perturbed, 5e-4)]
    )
    def test_delivered(self, condition, extra):
        _, dep, _, delay = self._hop(condition, observed=False)
        assert type(delay) is float
        assert delay == dep.links["cpf_cpf_inter"].latency_s + extra

        sim, dep, root, observed = self._hop(condition, observed=True)
        assert type(observed) is float and observed == delay
        seq = sim._seq
        # closed before the simulator runs another step
        (span,) = dep.obs.tracer.children_of(root)
        assert (span.name, span.status) == ("hop.cpf_cpf_inter", "ok")
        assert (span.start, span.end) == (0.5, 0.5 + delay)
        sim.run()
        assert sim._seq == seq  # obs queued nothing behind the hop
        assert (span.start, span.end, span.status) == (0.5, 0.5 + delay, "ok")
        assert dep.links["cpf_cpf_inter"].messages_sent == 1

    @pytest.mark.parametrize("condition", [_blackholed, _partitioned])
    def test_lost(self, condition):
        _, dep, _, wait = self._hop(condition, observed=False)
        assert_lost(wait)
        assert dep.links["cpf_cpf_inter"].dropped == 1

        sim, dep, root, ev = self._hop(condition, observed=True)
        assert_lost(ev)
        (span,) = dep.obs.tracer.children_of(root)
        assert (span.status, span.start, span.end) == ("error", 0.5, 0.5)
        sim.run()
        assert (span.status, span.start, span.end) == ("error", 0.5, 0.5)
        assert dep.faults.messages_lost == 1

    def test_process_waits_the_same_either_way(self):
        woke = []
        for observed in (False, True):
            sim, _, _, wait = self._hop(_perturbed, observed)

            def body():
                yield wait
                return sim.now

            woke.append(sim.run_process(body()))
        assert woke[0] == woke[1] > 0.5


class TestOpGuards:
    def test_fail_unknown_or_down_target_is_skipped(self):
        _, dep = make_dep()
        injector = FaultInjector(dep, FaultPlan()).install()
        injector.fire(FaultOp(op="fail_cpf", target="cpf-99-9"))
        assert injector.ops_skipped == 1 and injector.ops_applied == 0
        injector.fire(FaultOp(op="fail_cpf", target="cpf-20-0"))
        injector.fire(FaultOp(op="fail_cpf", target="cpf-20-0"))  # already down
        assert injector.ops_applied == 1 and injector.ops_skipped == 2

    def test_apply_is_the_bare_state_flip(self):
        """What a shard mirrors: node state, and nothing the owner counts."""
        _, dep = make_dep()
        injector = FaultInjector(dep, FaultPlan()).install()
        heard = []
        injector.add_listener(lambda *args: heard.append(args))
        assert injector.apply(FaultOp(op="fail_cpf", target="cpf-20-0")) is True
        assert not dep.cpfs["cpf-20-0"].up
        assert injector.apply(FaultOp(op="fail_cpf", target="cpf-20-0")) is False
        assert (injector.ops_applied, injector.ops_skipped) == (0, 0)
        assert len(injector.trace) == 0 and heard == []
        # the same op through fire is counted, recorded and announced
        injector.fire(FaultOp(op="recover_cpf", target="cpf-20-0"))
        assert injector.ops_applied == 1 and len(injector.trace) == 1
        assert [args[1:] for args in heard] == [("recover_cpf", "cpf-20-0")]

    @pytest.mark.parametrize("how", ["apply", "fire"])
    def test_an_op_with_no_handler_is_an_error_either_way(self, how):
        _, dep = make_dep()
        injector = FaultInjector(dep, FaultPlan()).install()
        with pytest.raises(ValueError, match="cannot be fired"):
            getattr(injector, how)(FaultOp(op="wait", dt=0.0))

    def test_last_alive_guard_spares_final_cpf(self):
        _, dep = make_dep()
        injector = FaultInjector(dep, FaultPlan(guard_last_alive=True)).install()
        names = sorted(dep.cpfs)
        for name in names:
            injector.fire(FaultOp(op="fail_cpf", target=name))
        alive = [n for n, c in dep.cpfs.items() if c.up]
        assert len(alive) == 1
        assert injector.ops_skipped == 1

    def test_guard_off_allows_total_outage(self):
        _, dep = make_dep()
        injector = FaultInjector(dep, FaultPlan(guard_last_alive=False)).install()
        for name in sorted(dep.cpfs):
            injector.fire(FaultOp(op="fail_cpf", target=name))
        assert not any(c.up for c in dep.cpfs.values())

    def test_cta_guard_and_recover(self):
        _, dep = make_dep()
        injector = FaultInjector(dep, FaultPlan(guard_last_alive=True)).install()
        for name in sorted(dep.ctas):
            injector.fire(FaultOp(op="fail_cta", target=name))
        assert sum(1 for c in dep.ctas.values() if c.up) == 1
        down = [n for n, c in dep.ctas.items() if not c.up][0]
        injector.fire(FaultOp(op="recover_cta", target=down))
        assert dep.ctas[down].up
        injector.fire(FaultOp(op="recover_cta", target=down))  # idempotent skip
        assert injector.trace.kinds().get("op_skipped", 0) >= 1

    def test_blackhole_restore_idempotence(self):
        _, dep = make_dep()
        injector = FaultInjector(dep, FaultPlan()).install()
        injector.fire(FaultOp(op="blackhole", target="bs_cta"))
        assert not dep.links["bs_cta"].up
        injector.fire(FaultOp(op="blackhole", target="bs_cta"))  # skip
        injector.fire(FaultOp(op="restore", target="bs_cta"))
        assert dep.links["bs_cta"].up
        injector.fire(FaultOp(op="restore", target="bs_cta"))  # skip
        assert injector.ops_applied == 2 and injector.ops_skipped == 2

    def test_clear_faults_resets_links_and_partition(self):
        _, dep = make_dep()
        plan = FaultPlan(seed=1)
        plan.perturb("cta_cpf", drop_p=0.2)
        injector = FaultInjector(dep, plan).install()
        injector.fire(FaultOp(op="partition", target="20|21"))
        assert dep.links["cta_cpf"].faulty
        injector.fire(FaultOp(op="clear_faults"))
        assert not dep.links["cta_cpf"].faulty
        assert injector._partition is None


class TestLifecycle:
    def test_double_install_rejected(self):
        _, dep = make_dep()
        FaultInjector(dep, FaultPlan()).install()
        with pytest.raises(RuntimeError):
            FaultInjector(dep, FaultPlan()).install()

    def test_install_schedules_timed_events(self):
        sim, dep = make_dep()
        plan = FaultPlan(guard_last_alive=False)
        plan.at(0.002, "fail_cpf", "cpf-20-0")
        plan.at(0.004, "recover_cpf", "cpf-20-0")
        injector = FaultInjector(dep, plan).install()
        sim.run(until=0.003)
        assert not dep.cpfs["cpf-20-0"].up
        sim.run(until=0.005)
        assert dep.cpfs["cpf-20-0"].up
        assert injector.ops_applied == 2

    def test_uninstall_releases_hop_path_and_heals(self):
        _, dep = make_dep()
        plan = FaultPlan(seed=1)
        plan.perturb("cta_cpf", drop_p=0.2)
        injector = FaultInjector(dep, plan).install()
        injector.fire(FaultOp(op="blackhole", target="bs_cta"))
        injector.uninstall()
        assert dep.faults is None
        assert dep.links["bs_cta"].up
        assert not dep.links["cta_cpf"].faulty

    def test_unknown_hop_in_perturbation_raises_on_install(self):
        _, dep = make_dep()
        plan = FaultPlan(seed=1)
        plan.perturb("warp_drive", drop_p=0.1)
        with pytest.raises(KeyError):
            FaultInjector(dep, plan).install()

    def test_fault_counters_include_per_link_detail(self):
        _, dep = make_dep()
        plan = FaultPlan(seed=5)
        plan.perturb("cta_cpf", drop_p=0.5, rto_s=1e-5)
        injector = FaultInjector(dep, plan).install()
        link = dep.links["cta_cpf"]
        for _ in range(30):
            injector.transit_event(link, 8)
        counters = injector.fault_counters()
        assert counters["link.cta_cpf.retransmits"] > 0
