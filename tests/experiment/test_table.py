"""Run-table expansion properties: deterministic, collision-free seeds,
stable under axis reordering (the seeding contract docs/EXPERIMENTS.md
promises)."""

import pytest
from hypothesis import given, strategies as st

from repro.experiment import EXPERIMENTS, ExperimentError
from repro.experiment.table import canonical_key, derive_seeds, expand_run_table

#: small but varied axis grids: 1-3 axes, 1-4 values each
_axis_values = st.lists(
    st.one_of(
        st.integers(min_value=0, max_value=50),
        st.floats(
            min_value=0.0, max_value=50.0,
            allow_nan=False, allow_infinity=False,
        ),
    ),
    min_size=1, max_size=4, unique=True,
)
_grids = st.dictionaries(
    st.sampled_from(["skew_ms", "deploy", "victims", "flows", "hosts"]),
    _axis_values,
    min_size=1, max_size=3,
)


class TestExpansionProperties:
    @given(grid=_grids, reps=st.integers(min_value=1, max_value=5),
           seed=st.integers(min_value=0, max_value=2**31))
    def test_expansion_is_deterministic(self, grid, reps, seed):
        assert (expand_run_table(grid, reps, seed)
                == expand_run_table(grid, reps, seed))

    @given(grid=_grids, reps=st.integers(min_value=1, max_value=5),
           seed=st.integers(min_value=0, max_value=2**31))
    def test_seeds_pairwise_distinct_across_table(self, grid, reps, seed):
        """No repetition or grid point ever reuses another cell's seed."""
        runs = expand_run_table(grid, reps, seed)
        seeds = [run.seed for run in runs]
        assert len(set(seeds)) == len(seeds)

    @given(grid=_grids, reps=st.integers(min_value=1, max_value=5),
           seed=st.integers(min_value=0, max_value=2**31))
    def test_stable_under_axis_reordering(self, grid, reps, seed):
        """Reordering a spec's axes must not re-seed a committed study:
        the (params, rep) -> seed mapping is identical either way."""
        reversed_grid = dict(reversed(list(grid.items())))
        forward = {
            canonical_key(run.params, run.rep): run.seed
            for run in expand_run_table(grid, reps, seed)
        }
        backward = {
            canonical_key(run.params, run.rep): run.seed
            for run in expand_run_table(reversed_grid, reps, seed)
        }
        assert forward == backward

    @given(grid=_grids, reps=st.integers(min_value=1, max_value=4))
    def test_table_shape(self, grid, reps):
        runs = expand_run_table(grid, reps, 1729)
        points = 1
        for values in grid.values():
            points *= len(values)
        assert len(runs) == points * reps
        assert [run.index for run in runs] == list(range(len(runs)))
        # reps enumerate fastest, within each point
        assert [run.rep for run in runs] == [
            r for _ in range(points) for r in range(reps)
        ]


class TestRegisteredSpecs:
    def test_every_registered_table_is_collision_free(self):
        for name in EXPERIMENTS.names():
            spec = EXPERIMENTS.get(name)
            grid = {knob: list(vals) for knob, vals in spec.grid.items()}
            runs = expand_run_table(grid, spec.reps, 1729)
            seeds = [run.seed for run in runs]
            assert len(set(seeds)) == len(seeds), name
            if spec.figure is not None:
                assert spec.reps >= 3, (
                    f"{name}: a degradation point needs statistical weight"
                )


class TestExtraPoints:
    def test_extra_points_follow_the_product(self):
        runs = expand_run_table({"hosts": [64, 128]}, 2, 1729,
                                extra_points=[{"hosts": 4096}])
        assert [(run.point, run.rep, run.params["hosts"]) for run in runs] == [
            (0, 0, 64), (0, 1, 64), (1, 0, 128), (1, 1, 128),
            (2, 0, 4096), (2, 1, 4096),
        ]

    def test_extra_point_takes_its_params_seed(self):
        """An extra point gets the seed its params would get on the grid."""
        extra = expand_run_table({"hosts": [64]}, 1, 1729,
                                 extra_points=[{"hosts": 4096}])
        gridded = expand_run_table({"hosts": [4096, 64]}, 1, 1729)
        assert {r.params["hosts"]: r.seed for r in extra} == {
            r.params["hosts"]: r.seed for r in gridded}

    def test_extra_point_repeating_a_grid_point_rejected(self):
        with pytest.raises(ExperimentError, match="unique"):
            expand_run_table({"hosts": [64]}, 1, 1729,
                             extra_points=[{"hosts": 64}])


class TestDeriveSeeds:
    def test_duplicate_keys_rejected(self):
        with pytest.raises(ExperimentError, match="unique"):
            derive_seeds(1, ["a|rep=0", "a|rep=0"])

    def test_base_seed_changes_every_seed(self):
        keys = [f"hosts={h}|rep=0" for h in (64, 128)]
        one, two = derive_seeds(1, keys), derive_seeds(2, keys)
        assert all(one[key] != two[key] for key in keys)

    def test_salt_is_order_independent(self):
        keys = [f"skew_ms={v}|rep={r}" for v in (0, 1, 2) for r in (0, 1)]
        forward = derive_seeds(7, keys)
        backward = derive_seeds(7, list(reversed(keys)))
        assert forward == backward


class TestValidation:
    def test_zero_reps_rejected(self):
        with pytest.raises(ExperimentError, match="reps"):
            expand_run_table({"skew_ms": [0.0]}, 0, 1729)

    def test_empty_grid_rejected(self):
        with pytest.raises(ExperimentError, match="axis"):
            expand_run_table({}, 3, 1729)
