"""Tests for the optimisation space (OptConfig and friends)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.compiler import (
    BASELINE,
    OPT_NAMES,
    OptConfig,
    configs_with,
    describe_optimisation,
    disable_opt,
    enumerate_configs,
)
from repro.errors import InvalidConfigError


def config_strategy():
    return st.builds(
        OptConfig,
        coop_cv=st.booleans(),
        wg=st.booleans(),
        sg=st.booleans(),
        fg=st.sampled_from([None, 1, 8]),
        oitergb=st.booleans(),
        wg_size=st.sampled_from([128, 256]),
    )


class TestSpaceSize:
    def test_paper_counts(self):
        # 96 configurations; "95 optimisation combinations" + baseline.
        assert len(enumerate_configs()) == 96
        assert len(enumerate_configs(include_baseline=False)) == 95

    def test_no_duplicates(self):
        keys = [c.key() for c in enumerate_configs()]
        assert len(keys) == len(set(keys))

    def test_baseline_is_in_space(self):
        assert BASELINE in enumerate_configs()
        assert BASELINE.is_baseline


class TestNames:
    def test_roundtrip_names(self):
        for cfg in enumerate_configs():
            assert OptConfig.from_names(cfg.enabled_names()) == cfg

    def test_from_names_returns_one_canonical_instance(self):
        """Every name set maps to one shared instance, in any order or
        container, equal to (and hashing like) a freshly built one."""
        for cfg in enumerate_configs():
            names = cfg.enabled_names()
            canonical = OptConfig.from_names(names)
            assert OptConfig.from_names(sorted(names, reverse=True)) is canonical
            assert OptConfig.from_names(list(names) * 2) is canonical
            assert canonical == cfg and hash(canonical) == hash(cfg)
            assert canonical.key() == cfg.key()
        assert OptConfig.from_names([]) is OptConfig.from_names(set())
        assert OptConfig.from_names([]) == BASELINE

    def test_fg_variants_mutually_exclusive(self):
        with pytest.raises(InvalidConfigError, match="mutually exclusive"):
            OptConfig.from_names({"fg", "fg8"})
        with pytest.raises(InvalidConfigError, match="mutually exclusive"):
            OptConfig.from_names({"fg", "fg8", "wg"})

    def test_unknown_name_rejected(self):
        with pytest.raises(InvalidConfigError):
            OptConfig.from_names({"turbo"})
        with pytest.raises(InvalidConfigError, match="unknown optimisations: turbo"):
            OptConfig.from_names({"turbo", "fg", "fg8"})
        with pytest.raises(InvalidConfigError):
            BASELINE.has("turbo")

    def test_invalid_values_rejected(self):
        with pytest.raises(InvalidConfigError):
            OptConfig(fg=4)
        with pytest.raises(InvalidConfigError):
            OptConfig(wg_size=192)

    def test_label_ordering(self):
        cfg = OptConfig.from_names({"sz256", "wg", "coop-cv"})
        assert cfg.label() == "coop-cv, wg, sz256"
        assert BASELINE.label() == "baseline"

    def test_key_stable(self):
        cfg = OptConfig.from_names({"wg", "sg"})
        assert cfg.key() == "sg+wg"
        assert BASELINE.key() == "baseline"

    def test_describe_optimisation(self):
        for name in OPT_NAMES:
            assert describe_optimisation(name)
        with pytest.raises(InvalidConfigError):
            describe_optimisation("nope")


class TestMirrors:
    @given(config_strategy(), st.sampled_from(OPT_NAMES))
    def test_disable_opt_only_touches_target(self, cfg, name):
        mirror = disable_opt(cfg, name)
        assert not mirror.has(name)
        # Every other optimisation keeps its state.
        for other in OPT_NAMES:
            if other == name:
                continue
            assert mirror.has(other) == cfg.has(other)

    @given(st.sampled_from(OPT_NAMES))
    def test_configs_with_halves_the_space(self, name):
        enabled = configs_with(name)
        disabled = configs_with(name, enabled=False)
        assert len(enabled) + len(disabled) == 96
        assert all(c.has(name) for c in enabled)
        assert all(not c.has(name) for c in disabled)
        # fg/fg8 split the 3-valued axis; boolean axes split evenly.
        if name in ("fg", "fg8"):
            assert len(enabled) == 32
        else:
            assert len(enabled) == 48

    @given(st.sampled_from(OPT_NAMES))
    def test_mirror_is_bijective_into_disabled_set(self, name):
        mirrors = {disable_opt(c, name).key() for c in configs_with(name)}
        assert len(mirrors) == len(configs_with(name))

    def test_disable_fg_does_not_touch_fg8(self):
        cfg = OptConfig(fg=8)
        assert disable_opt(cfg, "fg") == cfg
        assert disable_opt(cfg, "fg8").fg is None

    def test_unknown_opt_rejected(self):
        with pytest.raises(InvalidConfigError):
            disable_opt(BASELINE, "nope")
        with pytest.raises(InvalidConfigError):
            configs_with("nope")


class TestSemantics:
    @given(config_strategy())
    def test_enabled_names_consistent_with_has(self, cfg):
        for name in OPT_NAMES:
            assert cfg.has(name) == (name in cfg.enabled_names())

    @given(config_strategy())
    def test_nested_parallelism_flag(self, cfg):
        assert cfg.uses_nested_parallelism == (
            cfg.wg or cfg.sg or cfg.fg is not None
        )


def _recomputed_key(config: OptConfig) -> str:
    return "+".join(sorted(config.enabled_names())) or "baseline"


class TestKeyMemo:
    """``key()`` is computed once per instance and never changes meaning."""

    def test_every_config_keeps_its_key(self):
        import copy
        import pickle
        from dataclasses import replace

        for config in enumerate_configs():
            expected = _recomputed_key(config)
            fresh = OptConfig(**{
                f: getattr(config, f)
                for f in ("coop_cv", "wg", "sg", "fg", "oitergb", "wg_size")
            })
            assert config.key() == expected
            assert config.key() is config.key()  # memoised on the instance
            # The cached key is not a field: equality, hashing and order
            # compare the same with and without it.
            assert config == fresh and hash(config) == hash(fresh)
            assert not (config < fresh) and not (fresh < config)
            assert {config, fresh} == {fresh}
            for copied in (
                pickle.loads(pickle.dumps(config)),
                pickle.loads(pickle.dumps(fresh)),
                copy.deepcopy(config),
                replace(config),
            ):
                assert copied == config and copied.key() == expected
            for name in OPT_NAMES:
                mirror = disable_opt(config, name)
                assert mirror.key() == _recomputed_key(mirror)
            flipped = replace(config, oitergb=not config.oitergb)
            assert flipped.key() == _recomputed_key(flipped) != expected

    def test_key_is_not_a_field(self):
        from dataclasses import fields

        config = OptConfig(wg=True)
        config.key()
        assert [f.name for f in fields(config)] == [
            "coop_cv", "wg", "sg", "fg", "oitergb", "wg_size"
        ]
        assert repr(config) == repr(OptConfig(wg=True))


def _recomputed_names(config: OptConfig) -> frozenset:
    flags = (
        ("coop-cv", config.coop_cv),
        ("wg", config.wg),
        ("sg", config.sg),
        ("fg", config.fg == 1),
        ("fg8", config.fg == 8),
        ("oitergb", config.oitergb),
        ("sz256", config.wg_size == 256),
    )
    return frozenset(name for name, on in flags if on)


def _recomputed_label(config: OptConfig) -> str:
    names = _recomputed_names(config)
    return ", ".join(n for n in OPT_NAMES if n in names) or "baseline"


class TestNameMemo:
    """``enabled_names()`` and ``label()`` are memoised like ``key()``."""

    def test_every_config_keeps_its_names_and_label(self):
        import copy
        import pickle
        from dataclasses import replace

        for config in enumerate_configs():
            names, label = _recomputed_names(config), _recomputed_label(config)
            fresh = OptConfig(**{
                f: getattr(config, f)
                for f in ("coop_cv", "wg", "sg", "fg", "oitergb", "wg_size")
            })
            assert config.enabled_names() == names
            assert config.label() == label
            assert config.enabled_names() is config.enabled_names()
            assert config.label() is config.label()
            assert config.is_baseline == (label == "baseline")
            assert config == fresh and hash(config) == hash(fresh)
            assert not (config < fresh) and not (fresh < config)
            for copied in (
                pickle.loads(pickle.dumps(config)),
                copy.deepcopy(config),
                replace(config),
            ):
                assert copied == config
                assert copied.enabled_names() == names
                assert copied.label() == label
            flipped = replace(config, sg=not config.sg)
            assert flipped.enabled_names() == _recomputed_names(flipped)
            assert flipped.label() == _recomputed_label(flipped) != label

    def test_memo_is_not_a_field(self):
        from dataclasses import asdict

        config = OptConfig(sg=True, fg=8)
        config.enabled_names()
        config.label()
        assert asdict(config) == asdict(OptConfig(sg=True, fg=8))
        assert repr(config) == repr(OptConfig(sg=True, fg=8))
        assert config.label() == "sg, fg8"
