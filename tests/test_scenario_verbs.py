"""Scenario verbs and assertion kinds that the bundled scripts do not use:
actuate (granted and denied), unsubscribe, a successful transfer, assert
kind=stats, assert kind=read absent=true and thing-get value=."""

import pytest

from thingchain.scenario import run_scenario_text

# "sub/" + u64(0): the key of the topic's first subscription
SUB_0 = "hex:7375622f0000000000000000"
STATS = "assert kind=stats feed=@feed from=0 to=5 min=20.5 max=21.5 avg=21.0 count=2"

SCRIPT = f"""
account name=owner tokens=100
account name=friend tokens=0
account name=stranger tokens=0
deploy as=act code=actuation owner=owner
call target=@act caller=owner method=allow_actor args=acct:friend
actuate contract=@act caller=friend action=open args=str:50
actuate contract=@act caller=stranger action=open expect=denied
assert kind=read target=@act key=str:logseq value=hex:0000000000000002
deploy as=feed code=feed owner=owner
push feed=@feed caller=owner value=20.5 tick=1
push feed=@feed caller=owner value=21.5 tick=2
push feed=@feed caller=owner value=25.0 tick=9
{STATS}
deploy as=topic code=topic owner=owner
subscribe topic=@topic pattern=a/# sink=uri:coap://friend.example/inbox caller=friend as=sub
unsubscribe topic=@topic sub=@sub caller=friend
assert kind=read target=@topic key={SUB_0} absent=true
publish topic=@topic path=a/b payload=str:x caller=owner expect_notified=0
transfer from=owner to=friend tokens=30
assert kind=balance account=friend value=30
register thing=t1 as=t1
thing-put thing=t1 value=22.25
thing-get thing=t1 what=last value=22.25
"""


def _variant(old: str, new: str) -> str:
    assert SCRIPT.count(old) == 1, old
    return SCRIPT.replace(old, new)


def test_every_step_of_the_script_is_ok():
    report = run_scenario_text(SCRIPT, seed=4)
    assert report.exit_code == 0, report.failure
    assert len(report.steps) == 23
    assert all(s.status == "ok" for s in report.steps)
    details = {s.verb: s.detail for s in report.steps}
    assert details["thing-get"] == "last=22.25"
    assert [s.detail for s in report.steps if s.verb == "actuate"] == ["granted", "denied"]
    stats = next(s.detail for s in report.steps if s.detail.startswith("min "))
    assert stats == "min 20.5 max 21.5 avg 21.0 count 2"
    assert "absent" in [s.detail for s in report.steps]


@pytest.mark.parametrize("old, new, reason", [
    ("actuate contract=@act caller=stranger action=open expect=denied",
     "actuate contract=@act caller=stranger action=open",
     "expected granted, got denied"),
    ("actuate contract=@act caller=friend action=open args=str:50",
     "actuate contract=@act caller=friend action=open args=str:50 expect=denied",
     "expected denied, got granted"),
    (STATS, STATS.replace("count=2", "count=3"), "count 2 != 3"),
    (STATS, STATS.replace("avg=21.0", "avg=21.5"), "avg 21.0 != 21.5"),
    (STATS, STATS.replace("to=5", "to=9"), "max 25.0 != 21.5"),
    ("unsubscribe topic=@topic sub=@sub caller=friend",      # the subscription is live
     f"assert kind=read target=@topic key={SUB_0} absent=true\n"
     "unsubscribe topic=@topic sub=@sub caller=friend",
     "expected absent key"),
    ("unsubscribe topic=@topic sub=@sub caller=friend",
     "unsubscribe topic=@topic sub=@sub caller=owner",
     "reverted: NotAuthorized"),
    ("transfer from=owner to=friend tokens=30",
     "transfer from=friend to=owner tokens=30",
     "InsufficientTokens"),
    ("thing-get thing=t1 what=last value=22.25",
     "thing-get thing=t1 what=last value=22.5",
     "last=22.25, expected 22.5"),
])
def test_a_failing_assertion_stops_the_run_at_its_step(old, new, reason):
    report = run_scenario_text(_variant(old, new), seed=4)
    assert report.exit_code == 1
    failed = report.steps[-1]
    assert failed.status == "failed"
    assert all(s.status == "ok" for s in report.steps[:-1])
    assert new.split()[0] == failed.verb
    assert reason in report.failure, report.failure
