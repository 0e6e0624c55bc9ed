"""RL010 fixture — linted under a fake src/repro/core path by the tests."""

from repro.errors import ConfigurationError


def _consume(clips):
    return list(clips)


def bad_abandoned_charge(meter, clips):
    meter.record("detector", len(clips))  # line 11: finding
    if not clips:
        raise ConfigurationError("empty chunk abandoned after charging")
    return _consume(clips)


def bad_cached_charge(meter, clip):
    meter.record_cached("detector", 1)  # line 18: finding
    if clip is None:
        raise ConfigurationError("missing clip abandoned after charging")
    return clip


def good_refund_before_raise(meter, clips):
    meter.record("detector", len(clips))
    if not clips:
        meter.refund("detector", len(clips))
        raise ConfigurationError("empty chunk, unit refunded")
    return _consume(clips)


def good_handler_refunds(meter, clips):
    meter.record("detector", len(clips))
    try:
        return _consume(clips)
    except ConfigurationError:
        meter.refund("detector", len(clips))
        raise


def good_giveup_settles(meter, clip):
    meter.record("detector", 1)
    if clip is None:
        meter.record_giveup("detector")
        raise ConfigurationError("gave up on the clip, spend recorded")
    return clip


def good_no_abrupt_exit(meter, clips):
    meter.record("detector", len(clips))
    return _consume(clips)


def good_refund_in_finally(meter, clips):
    meter.record("detector", len(clips))
    try:
        if not clips:
            raise ConfigurationError("empty chunk, refunded by finally")
        return _consume(clips)
    finally:
        meter.refund("detector", len(clips))
