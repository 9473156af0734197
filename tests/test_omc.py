"""Tests for the Object Management Component."""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.omc import ObjectManager, TranslationError


def omc_state(omc):
    """Everything a refused probe must leave as it was."""
    return (
        omc.base_address_table(),
        omc.lifetime_table(),
        copy.deepcopy(omc.groups),
        omc.live_count(),
    )


class TestGrouping:
    def test_same_site_same_group(self):
        omc = ObjectManager()
        a = omc.on_alloc(0x1000, 64, "site", None, 0)
        b = omc.on_alloc(0x2000, 64, "site", None, 1)
        assert a.group_id == b.group_id

    def test_different_sites_different_groups(self):
        omc = ObjectManager()
        a = omc.on_alloc(0x1000, 64, "site.a", None, 0)
        b = omc.on_alloc(0x2000, 64, "site.b", None, 1)
        assert a.group_id != b.group_id

    def test_serials_count_within_group(self):
        omc = ObjectManager()
        a = omc.on_alloc(0x1000, 64, "s", None, 0)
        other = omc.on_alloc(0x3000, 64, "other", None, 1)
        b = omc.on_alloc(0x2000, 64, "s", None, 2)
        assert (a.serial, b.serial) == (0, 1)
        assert other.serial == 0

    def test_type_refinement_off_by_default(self):
        omc = ObjectManager()
        a = omc.on_alloc(0x1000, 64, "s", "node", 0)
        b = omc.on_alloc(0x2000, 64, "s", "leaf", 1)
        assert a.group_id == b.group_id

    def test_type_refinement_on(self):
        omc = ObjectManager(refine_by_type=True)
        a = omc.on_alloc(0x1000, 64, "s", "node", 0)
        b = omc.on_alloc(0x2000, 64, "s", "leaf", 1)
        assert a.group_id != b.group_id

    def test_group_labels(self):
        omc = ObjectManager(refine_by_type=True)
        omc.on_alloc(0x1000, 64, "s", "node", 0)
        assert omc.groups[0].label == "s<node>"

    def test_group_id_of_site(self):
        omc = ObjectManager()
        record = omc.on_alloc(0x1000, 64, "s", None, 0)
        assert omc.group_id_of_site("s") == record.group_id
        assert omc.group_id_of_site("missing") is None


class TestTranslation:
    def test_translate_inside_object(self):
        omc = ObjectManager()
        record = omc.on_alloc(0x1000, 64, "s", None, 0)
        assert omc.translate(0x1000) == (record.group_id, 0, 0)
        assert omc.translate(0x1030) == (record.group_id, 0, 0x30)

    def test_translate_outside(self):
        omc = ObjectManager()
        omc.on_alloc(0x1000, 64, "s", None, 0)
        assert omc.translate(0x1040) is None
        assert omc.translate(0xFFF) is None

    def test_translation_respects_liveness(self):
        omc = ObjectManager()
        omc.on_alloc(0x1000, 64, "s", None, 0)
        omc.on_free(0x1000, 5)
        assert omc.translate(0x1000) is None

    def test_address_reuse_gets_new_identity(self):
        """The same raw address names different objects over time --
        the false aliasing object-relativity removes."""
        omc = ObjectManager()
        omc.on_alloc(0x1000, 64, "s", None, 0)
        first = omc.translate(0x1010)
        omc.on_free(0x1000, 1)
        omc.on_alloc(0x1000, 64, "s", None, 2)
        second = omc.translate(0x1010)
        assert first == (0, 0, 0x10)
        assert second == (0, 1, 0x10)

    def test_free_of_untracked_rejected(self):
        omc = ObjectManager()
        with pytest.raises(TranslationError):
            omc.on_free(0x4000, 0)


class TestLiveIndex:
    """The live-object index: non-overlapping ``[start, end)`` ranges,
    resolved by a floor lookup on the start plus a range check."""

    def test_resolve_inside(self):
        omc = ObjectManager()
        record = omc.on_alloc(100, 100, "s", None, 0)
        assert omc.resolve(100) == (100, 200, record)
        assert omc.resolve(199) == (100, 200, record)

    def test_resolve_outside(self):
        omc = ObjectManager()
        omc.on_alloc(100, 100, "s", None, 0)
        assert omc.resolve(99) is None
        assert omc.resolve(200) is None

    @pytest.mark.parametrize(
        "start, size", [(150, 100), (50, 51), (120, 10)],
        ids=["tail", "head", "inside"],
    )
    def test_overlap_rejected(self, start, size):
        omc = ObjectManager()
        omc.on_alloc(100, 100, "s", None, 0)
        with pytest.raises(TranslationError):
            omc.on_alloc(start, size, "s", None, 1)

    def test_adjacent_ok(self):
        omc = ObjectManager()
        omc.on_alloc(100, 100, "s", None, 0)
        b = omc.on_alloc(200, 100, "s", None, 1)
        omc.on_alloc(50, 50, "s", None, 2)
        assert omc.resolve(200)[2] is b
        assert omc.live_count() == 3

    @pytest.mark.parametrize("size", [0, -8])
    def test_nonpositive_size_rejected(self, size):
        omc = ObjectManager()
        with pytest.raises(TranslationError):
            omc.on_alloc(100, size, "s", None, 0)
        assert omc.fresh

    def test_free(self):
        omc = ObjectManager()
        a = omc.on_alloc(100, 100, "s", None, 0)
        assert omc.on_free(100, 1) is a
        assert omc.resolve(150) is None
        with pytest.raises(TranslationError):
            omc.on_free(100, 2)

    def test_free_then_realloc_over_the_old_range(self):
        omc = ObjectManager()
        omc.on_alloc(100, 100, "s", None, 0)
        omc.on_free(100, 1)
        b = omc.on_alloc(120, 100, "s", None, 2)
        assert omc.resolve(150)[2] is b

    def test_free_inside_an_object_rejected(self):
        omc = ObjectManager()
        omc.on_alloc(100, 100, "s", None, 0)
        with pytest.raises(TranslationError):
            omc.on_free(150, 1)
        assert omc.live_count() == 1

    def test_out_of_order_allocs(self):
        omc = ObjectManager()
        b = omc.on_alloc(300, 100, "s", None, 0)
        a = omc.on_alloc(100, 100, "s", None, 1)
        assert [omc.resolve(address) for address in (100, 250, 399)] == [
            (100, 200, a), None, (300, 400, b)
        ]
        assert omc.live_count() == 2

    @pytest.mark.parametrize("site", ["s", "new"])
    def test_refused_alloc_registers_nothing(self, site):
        omc = ObjectManager()
        omc.on_alloc(0x1000, 64, "s", None, 0)
        before = omc_state(omc)
        with pytest.raises(TranslationError):
            omc.on_alloc(0x1020, 64, site, None, 1)
        assert omc_state(omc) == before
        serial = omc.on_alloc(0x2000, 64, site, None, 2).serial
        assert serial == (1 if site == "s" else 0)


#: one probe: 0 allocates ``size`` bytes at ``address``; 1 frees the
#: live object picked by ``address``; 2 frees ``address`` itself
_probes = st.tuples(st.integers(0, 2), st.integers(0, 50), st.integers(-1, 10))


@settings(max_examples=80, deadline=None)
@given(st.lists(_probes, max_size=50))
def test_live_index_matches_a_reference_list(probes):
    """Random alloc/free sequences, refused ones included, against a
    brute-force list of the live ``(start, end, record)`` triples."""
    omc = ObjectManager()
    live = []
    for time, (action, address, size) in enumerate(probes):
        if action == 1 and live:
            start, __, record = live.pop(address % len(live))
            assert omc.on_free(start, time) is record
        elif action == 2 and not any(s == address for s, __, __ in live):
            before = omc_state(omc)
            with pytest.raises(TranslationError):
                omc.on_free(address, time)
            assert omc_state(omc) == before
        elif action == 0:
            end = address + size
            if size <= 0 or any(s < end and address < e for s, e, __ in live):
                before = omc_state(omc)
                with pytest.raises(TranslationError):
                    omc.on_alloc(address, size, f"site{address % 3}", None, time)
                assert omc_state(omc) == before
            else:
                record = omc.on_alloc(address, size, f"site{address % 3}", None, time)
                live.append((address, end, record))
        assert omc.live_count() == len(live)
        for probe in range(-1, 62):
            expected = next((hit for hit in live if hit[0] <= probe < hit[1]), None)
            assert omc.resolve(probe) == expected
            assert omc.translate(probe) == (
                None if expected is None
                else (expected[2].group_id, expected[2].serial, probe - expected[0])
            )


class TestAuxiliaryOutputs:
    def test_lifetimes(self):
        omc = ObjectManager()
        omc.on_alloc(0x1000, 64, "s", None, 3)
        omc.on_free(0x1000, 9)
        rows = omc.lifetime_table()
        assert rows == [(0, 0, 3, 9, 64)]

    def test_live_object_has_no_free_time(self):
        omc = ObjectManager()
        record = omc.on_alloc(0x1000, 64, "s", None, 3)
        assert record.live
        assert record.lifetime() is None
        assert omc.lifetime_table()[0][3] is None

    def test_lifetime_duration(self):
        omc = ObjectManager()
        record = omc.on_alloc(0x1000, 64, "s", None, 3)
        omc.on_free(0x1000, 10)
        assert record.lifetime() == 7
        assert not record.live

    def test_base_address_table(self):
        omc = ObjectManager()
        omc.on_alloc(0x1000, 64, "s", None, 0)
        omc.on_free(0x1000, 1)
        omc.on_alloc(0x2000, 64, "s", None, 2)
        table = omc.base_address_table()
        assert table == {(0, 0): 0x1000, (0, 1): 0x2000}

    def test_objects_and_object_accessors(self):
        omc = ObjectManager()
        omc.on_alloc(0x1000, 64, "a", None, 0)
        omc.on_alloc(0x2000, 32, "b", None, 1)
        assert len(omc.objects()) == 2
        assert omc.object(1, 0).size == 32
        assert omc.live_count() == 2
