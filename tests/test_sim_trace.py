"""Unit tests for the Figure 7 transaction reconstruction.

Each case feeds :func:`~repro.eval.experiments.reconstruct_transactions`
the :class:`~repro.sim.hooks.TraceHook` moments a run would publish.  The
``env`` fixture only keeps the cases' historical ids.
"""

from repro.eval.experiments import Transaction, reconstruct_transactions
from repro.sim.hooks import EventKind, TraceHook


def moments(txn, sqi=1, data=None, req=None, vacate=None, fill=None, use=None):
    """The trace moments of one transaction, in publication order."""
    ticks = (
        (EventKind.DATA_ARRIVE, data),
        (EventKind.REQUEST_ARRIVE, req),
        (EventKind.LINE_VACATE, vacate),
        (EventKind.LINE_FILL, fill),
        (EventKind.FIRST_USE, use),
    )
    return [
        TraceHook(tick=tick, kind=kind, transaction_id=txn, sqi=sqi)
        for kind, tick in ticks
        if tick is not None
    ]


def test_reconstruction_groups_by_transaction(env):
    events = moments(0, data=10, req=20, vacate=5, fill=30, use=40)
    events += moments(1, data=50, fill=60, vacate=45, use=70)
    txns = reconstruct_transactions(events)
    assert len(txns) == 2
    assert txns[0].data_arrive == 10 and txns[0].first_use == 40
    assert txns[1].request_arrive is None


def test_speculative_detection(env):
    events = moments(0, data=10, vacate=5, fill=30, use=40)  # no request
    events += moments(1, data=10, req=20, vacate=5, fill=30, use=40)
    txns = reconstruct_transactions(events)
    assert txns[0].speculative
    assert not txns[1].speculative


def test_request_bound_and_potential_saving(env):
    # Request (t=50) is the latest prerequisite; fill at 80.
    events = moments(0, data=10, req=50, vacate=20, fill=80, use=90)
    txn = reconstruct_transactions(events)[0]
    assert txn.request_bound
    # A speculative push could have filled at max(data, vacate)=20: save 60.
    assert txn.potential_saving == 60


def test_not_request_bound_when_data_is_latest(env):
    events = moments(0, data=60, req=50, vacate=20, fill=80, use=90)
    txn = reconstruct_transactions(events)[0]
    assert not txn.request_bound
    assert txn.potential_saving == 0


def test_earliest_request_kept(env):
    events = moments(0, req=30) + moments(0, req=10)
    # Earliest matched request is the one the figure plots...
    txn = reconstruct_transactions(events)[0]
    assert txn.request_arrive == 30  # first recorded wins (match order)


def test_load_to_use(env):
    events = moments(0, data=1, fill=100, use=130, vacate=0)
    assert reconstruct_transactions(events)[0].load_to_use == 30


def test_incomplete_transaction_flags(env):
    txn = Transaction(0, 1, data_arrive=5)
    assert not txn.complete
    assert not txn.speculative  # no fill yet
    assert txn.potential_saving == 0
    assert txn.load_to_use is None
