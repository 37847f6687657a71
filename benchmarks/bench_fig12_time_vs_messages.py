"""Figure 12: per-iteration time is ~linear in candidate messages."""

from repro.bench.experiments import fig12
from repro.bench.reporting import persist_report


def test_fig12_time_vs_messages(run_experiment):
    result = run_experiment(fig12.run)
    persist_report("fig12_time_vs_messages", result.report())
    by_system = {s.system: s for s in result.series}
    # time correlates with message volume for the incremental variants
    # (a per-superstep time floor — also visible in the paper's Figure 10
    # — caps the correlation once worksets get tiny)
    assert by_system["Stratosphere Micro"].correlation > 0.8
    assert by_system["Stratosphere Incr."].correlation > 0.5
    micro = by_system["Stratosphere Micro"]
    incr = by_system["Stratosphere Incr."]
    # both fitted costs are positive and finite
    assert micro.slope_us_per_message > 0
    assert incr.slope_us_per_message > 0
    # the microstep variant chews through a larger, more redundant
    # candidate volume (the paper's "many more redundant candidate
    # component IDs") ...
    assert sum(micro.messages) > sum(incr.messages)
    # ... at a lower marginal cost per candidate (the paper's "much
    # lower slope")
    assert micro.slope_us_per_message < incr.slope_us_per_message
