"""Cost model sanity: monotonicity and strategy orderings."""

from repro.optimizer import costs
from repro.optimizer.costs import DEFAULT_WEIGHTS, CostWeights
from repro.runtime.plan import ShipKind


class TestShipCosts:
    def test_forward_is_free(self):
        assert costs.ship_cost(ShipKind.FORWARD, 1000, 4, DEFAULT_WEIGHTS) == 0

    def test_broadcast_dominates_partition(self):
        for parallelism in (2, 4, 16):
            bc = costs.ship_cost(ShipKind.BROADCAST, 1000, parallelism,
                                 DEFAULT_WEIGHTS)
            part = costs.ship_cost(ShipKind.PARTITION_HASH, 1000,
                                   parallelism, DEFAULT_WEIGHTS)
            assert bc > part

    def test_broadcast_small_beats_partition_large(self):
        bc_small = costs.ship_cost(ShipKind.BROADCAST, 10, 4, DEFAULT_WEIGHTS)
        part_large = costs.ship_cost(ShipKind.PARTITION_HASH, 100_000, 4,
                                     DEFAULT_WEIGHTS)
        assert bc_small < part_large

    def test_linear_in_size(self):
        small = costs.ship_cost(ShipKind.PARTITION_HASH, 100, 4,
                                DEFAULT_WEIGHTS)
        large = costs.ship_cost(ShipKind.PARTITION_HASH, 200, 4,
                                DEFAULT_WEIGHTS)
        assert abs(large - 2 * small) < 1e-9

    def test_gather_scales_with_parallelism_share(self):
        g = costs.ship_cost(ShipKind.GATHER, 100, 4, DEFAULT_WEIGHTS)
        assert 0 < g < costs.ship_cost(ShipKind.BROADCAST, 100, 4,
                                       DEFAULT_WEIGHTS)


class TestLocalCosts:
    def test_sort_superlinear(self):
        small = costs.sort_cost(1_000, 4, DEFAULT_WEIGHTS)
        large = costs.sort_cost(2_000, 4, DEFAULT_WEIGHTS)
        assert large > 2 * small * 0.99  # at least ~linear with log growth

    def test_hash_build_costs_more_than_probe(self):
        assert costs.hash_build_cost(100, DEFAULT_WEIGHTS) > (
            costs.probe_cost(100, DEFAULT_WEIGHTS)
        )

    def test_weights_are_configurable(self):
        free = CostWeights(network=0.0, per_record_overhead=0.0,
                           per_batch_overhead=0.0, per_column_overhead=0.0)
        assert costs.ship_cost(ShipKind.BROADCAST, 1000, 4, free) == 0.0


class TestFramingCosts:
    def test_forward_frames_nothing(self):
        assert costs.framing_cost(
            ShipKind.FORWARD, 1000, 4, DEFAULT_WEIGHTS
        ) == 0.0

    def test_record_at_a_time_pays_full_frame_price(self):
        batched = CostWeights(batch_size=1024.0)
        degenerate = CostWeights(batch_size=1.0)
        hash_batched = costs.framing_cost(
            ShipKind.PARTITION_HASH, 1000, 4, batched
        )
        hash_degenerate = costs.framing_cost(
            ShipKind.PARTITION_HASH, 1000, 4, degenerate
        )
        assert hash_degenerate > 100 * hash_batched

    def test_framing_linear_in_size(self):
        small = costs.framing_cost(ShipKind.PARTITION_HASH, 100, 4,
                                   DEFAULT_WEIGHTS)
        large = costs.framing_cost(ShipKind.PARTITION_HASH, 200, 4,
                                   DEFAULT_WEIGHTS)
        assert abs(large - 2 * small) < 1e-9

    def test_broadcast_frames_one_copy_per_destination(self):
        one = costs.framing_cost(ShipKind.PARTITION_HASH, 1000, 4,
                                 DEFAULT_WEIGHTS)
        bc = costs.framing_cost(ShipKind.BROADCAST, 1000, 4,
                                DEFAULT_WEIGHTS)
        assert abs(bc - 4 * one) < 1e-9
