"""The generic name → item registry every catalogue is an instance of."""

from dataclasses import dataclass

import pytest

from repro.registry import Registry


class WidgetError(Exception):
    pass


@dataclass(frozen=True)
class Widget:
    name: str
    aliases: tuple[str, ...] = ()


def _registry(**kwargs):
    return Registry("widget", WidgetError,
                    lambda w: (w.name, *w.aliases), **kwargs)


class TestRegistration:
    def test_register_returns_the_item_and_resolves_names_and_aliases(self):
        reg = _registry()
        gear = Widget("gear", aliases=("cog",))
        assert reg.register(gear) is gear
        assert reg.get("gear") is gear and reg.get("cog") is gear
        assert "cog" in reg and "gear" in reg and "bolt" not in reg

    def test_works_as_a_class_decorator(self):
        reg = Registry("widget", WidgetError, lambda cls: (cls.__name__,))

        @reg.register
        class Spring:
            pass

        assert reg.get("Spring") is Spring

    def test_duplicate_name_rejected(self):
        reg = _registry()
        reg.register(Widget("gear"))
        with pytest.raises(WidgetError,
                           match="duplicate widget name/alias 'gear'"):
            reg.register(Widget("gear"))

    def test_alias_clashing_with_a_name_rejected(self):
        reg = _registry()
        reg.register(Widget("gear"))
        with pytest.raises(WidgetError, match="'gear'"):
            reg.register(Widget("cog", aliases=("gear",)))
        assert "cog" not in reg

    def test_name_clashing_with_an_alias_rejected(self):
        reg = _registry()
        reg.register(Widget("gear", aliases=("cog",)))
        with pytest.raises(WidgetError, match="'cog'"):
            reg.register(Widget("cog"))

    def test_self_clash_inside_one_item_rejected(self):
        reg = _registry()
        with pytest.raises(WidgetError, match="'gear'"):
            reg.register(Widget("gear", aliases=("gear",)))
        with pytest.raises(WidgetError, match="'cog'"):
            reg.register(Widget("bolt", aliases=("cog", "cog")))
        assert len(reg) == 0

    def test_rejecting_check_keeps_the_item_out(self):
        def check(w):
            if not w.name.islower():
                raise WidgetError(f"widget {w.name!r} must be lower case")

        reg = _registry(check=check)
        with pytest.raises(WidgetError, match="lower case"):
            reg.register(Widget("Gear"))
        assert "Gear" not in reg and len(reg) == 0


class TestReads:
    def test_unknown_name_lists_the_known_ones(self):
        reg = _registry()
        reg.register(Widget("gear", aliases=("cog",)))
        reg.register(Widget("bolt"))
        with pytest.raises(WidgetError,
                           match="^unknown widget 'nut'; known: bolt, gear$"):
            reg.get("nut")

    def test_names_values_len_iter_are_sorted_canonical(self):
        reg = _registry()
        gear, bolt = Widget("gear", aliases=("cog",)), Widget("bolt")
        reg.register(gear)
        reg.register(bolt)
        assert reg.names() == ["bolt", "gear"]
        assert reg.values() == [bolt, gear]
        assert list(reg) == ["bolt", "gear"]
        assert len(reg) == 2

    def test_load_runs_once_before_the_first_read(self):
        calls = []
        reg = None

        def load():
            calls.append(1)
            reg.register(Widget("gear"))
            assert "gear" in reg  # a read during loading does not recurse

        reg = _registry(load=load)
        reg.register(Widget("bolt"))  # registration is not a read
        assert calls == []
        assert reg.names() == ["bolt", "gear"]
        assert reg.get("gear").name == "gear"
        assert len(reg) == 2 and "bolt" in reg
        assert calls == [1]
