"""Property-based tests: the MPHF is minimal and perfect on any key set."""

from hypothesis import given, settings, strategies as st

from repro.core.mphf import HostDirectory, MinimalPerfectHash

key_sets = st.sets(
    st.text(alphabet=st.characters(min_codepoint=33, max_codepoint=126),
            min_size=1, max_size=24),
    min_size=1, max_size=200)


@settings(max_examples=60, deadline=None)
@given(keys=key_sets)
def test_bijection_onto_slot_range(keys):
    ordered = sorted(keys)
    mphf = MinimalPerfectHash.build(ordered)
    slots = [mphf.lookup(k) for k in ordered]
    assert sorted(slots) == list(range(len(ordered)))


@settings(max_examples=40, deadline=None)
@given(keys=st.sets(st.integers(min_value=0, max_value=10**9),
                    min_size=1, max_size=150))
def test_directory_roundtrip_arbitrary_host_labels(keys):
    hosts = [f"host-{k}" for k in sorted(keys)]
    directory = HostDirectory(hosts)
    for h in hosts:
        assert directory.hosts_of([directory.slot_of(h)]) == [h]


@settings(max_examples=25, deadline=None)
@given(keys=key_sets, load=st.sampled_from([2.0, 3.0, 5.0]))
def test_bucket_load_never_breaks_perfection(keys, load):
    ordered = sorted(keys)
    mphf = MinimalPerfectHash.build(ordered, bucket_load=load)
    assert len({mphf.lookup(k) for k in ordered}) == len(ordered)
