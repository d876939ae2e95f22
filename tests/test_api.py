"""Public API tests."""

import inspect

import anomalywalk


def test_no_public_callable_takes_a_policy():
    # thresholds are read from numerics.DEFAULT_POLICY when a call runs,
    # never passed in
    takers = [name for name in anomalywalk.__all__
              if callable(value := getattr(anomalywalk, name))
              and not (inspect.isclass(value) and issubclass(value, Exception))
              and "policy" in inspect.signature(value).parameters]
    assert takers == []
