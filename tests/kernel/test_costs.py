"""Calibration tests: the cost model must hit the paper's anchors."""

from __future__ import annotations

from repro.kernel.costs import DEFAULT_COSTS
from repro.sim.compact import CompactInstance
from repro.units import GIB, MSEC, USEC


def counts(size_gb: int) -> dict:
    return CompactInstance(size_gb).level_counts()


class TestFig3Anchors:
    def test_1gib_fork_under_10ms(self):
        assert DEFAULT_COSTS.fork_call_ns("default", counts(1)) < 10 * MSEC

    def test_64gib_fork_over_500ms(self):
        assert DEFAULT_COSTS.fork_call_ns("default", counts(64)) > 500 * MSEC

    def test_copy_share_dominates(self):
        for size in (1, 8, 64):
            total = DEFAULT_COSTS.fork_call_ns("default", counts(size))
            copy = DEFAULT_COSTS.page_table_copy_ns(counts(size))
            assert copy / total > 0.97

    def test_roughly_linear_scaling(self):
        t8 = DEFAULT_COSTS.fork_call_ns("default", counts(8))
        t64 = DEFAULT_COSTS.fork_call_ns("default", counts(64))
        assert 6 < t64 / t8 < 10


class TestSection31Anchors:
    def test_8gib_pmd_copy_about_2ms(self):
        pmd_ns = counts(8)["pmd"] * DEFAULT_COSTS.dir_entry_copy_ns
        assert 1.5 * MSEC < pmd_ns < 2.5 * MSEC

    def test_8gib_pte_copy_about_70ms(self):
        pte_ns = counts(8)["pte"] * DEFAULT_COSTS.pte_entry_copy_ns
        assert 60 * MSEC < pte_ns < 80 * MSEC

    def test_dir_entry_cost_is_500ns(self):
        assert DEFAULT_COSTS.dir_entry_copy_ns == 500


class TestFig22Anchors:
    def test_async_call_64gib_near_0_61ms(self):
        ns = DEFAULT_COSTS.fork_call_ns("async", counts(64))
        assert 0.45 * MSEC < ns < 0.85 * MSEC

    def test_odf_call_64gib_near_1_1ms(self):
        ns = DEFAULT_COSTS.fork_call_ns("odf", counts(64))
        assert 0.9 * MSEC < ns < 1.3 * MSEC

    def test_async_call_faster_than_odf_everywhere(self):
        for size in (1, 2, 4, 8, 16, 32, 64):
            c = counts(size)
            assert DEFAULT_COSTS.fork_call_ns(
                "async", c
            ) < DEFAULT_COSTS.fork_call_ns("odf", c)


class TestForkCallTerms:
    """The one per-method cost table, against the closed forms."""

    def test_terms_sum_to_the_closed_forms(self):
        c, k = counts(8), DEFAULT_COSTS
        dirs = (c["pgd"] + c["pud"]) * k.dir_entry_copy_ns
        assert k.fork_call_ns("default", c) == (
            k.fork_fixed_ns + dirs + c["pmd"] * k.dir_entry_copy_ns
            + c["pte"] * k.pte_entry_copy_ns
        )
        assert k.fork_call_ns("odf", c) == (
            k.fork_fixed_ns + dirs + c["pmd"] * k.odf_share_pmd_ns
        )
        assert k.fork_call_ns("async", c) == (
            k.fork_fixed_ns + dirs + c["pmd"] * k.pmd_wp_set_ns
        )

    def test_no_fork_costs_nothing(self):
        assert DEFAULT_COSTS.fork_call_ns("none", counts(8)) == 0
        assert DEFAULT_COSTS.fork_call_terms("none", counts(8)) == []

    def test_terms_follow_the_model_fields(self):
        scaled = DEFAULT_COSTS.scaled(pmd_wp_set_ns=36)
        c = counts(1)
        assert scaled.fork_call_ns("async", c) - DEFAULT_COSTS.fork_call_ns(
            "async", c
        ) == 18 * c["pmd"]


class TestFig11Anchors:
    def test_table_fault_lands_in_bcc_bucket(self):
        # One interruption must fall in [16, 63] us (Figure 11).
        ns = DEFAULT_COSTS.table_fault_ns()
        assert 16 * USEC <= ns <= 63 * USEC


class TestPersist:
    def test_8gib_persist_about_40s(self):
        ns = DEFAULT_COSTS.persist_ns(8 * GIB)
        assert 35e9 < ns < 45e9

    def test_speedup_scales(self):
        full = DEFAULT_COSTS.persist_ns(8 * GIB)
        quick = DEFAULT_COSTS.persist_ns(8 * GIB, speedup=16)
        assert abs(full / quick - 16) < 0.1

    def test_zero_bytes(self):
        assert DEFAULT_COSTS.persist_ns(0) == 0


class TestChildCopy:
    def test_near_linear_thread_scaling(self):
        c = counts(8)
        t1 = DEFAULT_COSTS.child_copy_ns(c, 1)
        t8 = DEFAULT_COSTS.child_copy_ns(c, 8)
        assert 7.5 < t1 / t8 < 8.5

    def test_8gib_single_thread_about_72ms(self):
        ns = DEFAULT_COSTS.child_copy_ns(counts(8), 1)
        assert 60 * MSEC < ns < 85 * MSEC

    def test_terms_equal_the_closed_form(self):
        c = counts(8)
        terms = DEFAULT_COSTS.child_copy_terms(c)
        assert [name for name, _, _ in terms] == [
            "child.pmd_copy",
            "child.pte_copy",
        ]
        serial = (
            c["pmd"] * DEFAULT_COSTS.dir_entry_copy_ns
            + c["pte"] * DEFAULT_COSTS.pte_entry_copy_ns
        )
        assert sum(ns for _, ns, _ in terms) == serial
        for threads in (1, 3, 8):
            assert DEFAULT_COSTS.child_copy_ns(c, threads) == int(
                serial / threads
            )


class TestScaled:
    def test_scaled_replaces(self):
        scaled = DEFAULT_COSTS.scaled(pte_entry_copy_ns=66)
        assert scaled.pte_entry_copy_ns == 66
        assert DEFAULT_COSTS.pte_entry_copy_ns == 33
