"""Every package exception survives pickling, as a forked replay worker
sends it back to the parent."""

from __future__ import annotations

import inspect
import pickle

from decisionflow import errors


def sample(cls):
    """One instance of ``cls``, with the extra attributes its class takes."""
    if cls is errors.BackendError:
        return cls("bad payload", payload={"a": [1]})
    if cls is errors.ReplayMissError:
        return cls("abc123")
    if cls is errors.DatasetError:
        return cls("bad record", line=3, field="id")
    return cls("something failed")


def test_every_error_round_trips_through_pickle():
    classes = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
               if issubclass(cls, errors.DecisionFlowError)]
    assert len(classes) == 17
    for cls in classes:
        err = sample(cls)
        again = pickle.loads(pickle.dumps(err))
        assert type(again) is cls
        assert str(again) == str(err)
        assert again.args == err.args
        assert vars(again) == vars(err)
    miss = pickle.loads(pickle.dumps(sample(errors.ReplayMissError)))
    assert str(miss) == "no recorded transcript for request digest abc123"
    assert miss.digest == "abc123"
