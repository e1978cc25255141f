import pytest


@pytest.fixture
def count_reads():
    """``count_reads(graph, *names)`` makes ``graph`` count its adjacency
    reads from then on and returns the one-entry list that holds the count.

    ``names`` picks the CSR pairs, ``"_out"`` and ``"_in"``: every slice of
    their arc ids is one node's arcs read, whether a sweep slices the CSR
    itself or calls ``out_arcs``/``in_arcs``.  The pair is read as an
    attribute first, so that one built on first read is in place before
    it is wrapped.
    """
    def wrap(graph, *names):
        calls = [0]

        class Counted(tuple):
            def __getitem__(self, index):
                if isinstance(index, slice):
                    calls[0] += 1
                return tuple.__getitem__(self, index)

        for name in names:
            ids, starts = getattr(graph, name)
            graph.__dict__[name] = (Counted(ids), starts)
        return calls

    return wrap


@pytest.fixture
def asp_kernels(monkeypatch):
    """The kernels asp's sweeps run from then on, in order: ``"numpy"``
    for each ``_evaluate`` call and ``"python"`` for each
    ``_sweep_lists`` call."""
    from recsp import asp

    ran = []
    for name, kernel in (("_evaluate", "numpy"), ("_sweep_lists", "python")):
        def spied(*args, run=getattr(asp, name), kernel=kernel):
            ran.append(kernel)
            return run(*args)

        monkeypatch.setattr(asp, name, spied)
    return ran
