"""Unit tests for the Read-your-Writes auditor."""

from repro.core import RYWAuditor, Violation


class TestAuditor:
    def test_fresh_auditor_holds(self):
        auditor = RYWAuditor()
        assert auditor.read_your_writes_held
        assert auditor.serves == 0

    def test_serving_current_state_is_clean(self):
        auditor = RYWAuditor(sim_now=lambda: 1.0)
        auditor.record_serve("ue-1", reader_version=3, served_version=3, cpf_name="c")
        auditor.record_serve("ue-1", reader_version=3, served_version=5, cpf_name="c")
        assert auditor.serves == 2
        assert auditor.read_your_writes_held

    def test_serving_stale_state_is_a_violation(self):
        auditor = RYWAuditor(sim_now=lambda: 2.5)
        auditor.record_serve("ue-1", reader_version=4, served_version=3, cpf_name="c")
        assert not auditor.read_your_writes_held
        violation = auditor.violations[0]
        assert violation == Violation(2.5, "ue-1", "c", 4, 3)

    def test_works_without_clock(self):
        auditor = RYWAuditor()
        auditor.record_serve("ue-1", 2, 1, "c")
        assert auditor.violations[0].time == 0.0

    def test_counters(self):
        auditor = RYWAuditor()
        auditor.record_reattach_forced("ue-1", "c")
        auditor.record_failover_masked("ue-1", replayed=3)
        auditor.record_failover_masked("ue-2", replayed=0)
        assert auditor.reattaches_forced == 1
        assert auditor.failovers_masked == 2
        assert auditor.messages_replayed == 3

    def test_violation_carries_serving_span_ids(self):
        """With obs installed the CPF passes its handle span; the
        violation then points into the exported trace timeline."""
        from repro.obs import Tracer

        tracer = Tracer(lambda: 0.0)
        root = tracer.begin("proc.service_request")
        handle = tracer.begin("cpf.handle", parent=root)
        auditor = RYWAuditor(sim_now=lambda: 3.0)
        auditor.record_serve("ue-1", 4, 3, "c", span=handle)
        violation = auditor.violations[0]
        assert violation.trace_id == root.root_id
        assert violation.span_id == handle.span_id
        # span ids are diagnostics: equality still compares facts alone
        assert violation == Violation(3.0, "ue-1", "c", 4, 3)

    def test_violation_span_ids_default_to_none(self):
        auditor = RYWAuditor()
        auditor.record_serve("ue-1", 2, 1, "c")
        assert auditor.violations[0].span_id is None
        assert auditor.violations[0].trace_id is None
