"""Report and trace serialization: fixed key order, 17-digit floats."""

import json
import math

import numpy as np
import pytest

from johnellip import (
    REPORT_KEYS,
    TRACE_HEADER,
    FixedPointConfig,
    fixed_point_solve,
    render_report_json,
    render_trace_csv,
)
from johnellip.fixed_point import SolveTrace


def sample_fields(**overrides):
    fields = {
        "m": 4,
        "n": 2,
        "epsilon_target": 0.1,
        "epsilon_achieved": 0.04729187529374399,
        "max_sigma": 1.047291875293744,
        "weight_sum": 2.0,
        "duality_gap": 0.09241962407465937,
        "logdet": 0.5,
        "iterations": 14,
        "wall_ms": 0.25,
        "seed": 0,
        "algorithm": "fixed-point",
        "certified": True,
    }
    fields.update(overrides)
    return fields


class TestJson:
    def test_parses_back_in_order(self):
        fields = sample_fields()
        parsed = json.loads(render_report_json(fields))
        assert parsed == fields
        assert list(parsed) == list(REPORT_KEYS)

    def test_exact_layout(self):
        text = render_report_json(sample_fields())
        assert text.startswith('{\n  "m": 4,\n  "n": 2,\n')
        assert '"epsilon_target": 0.10000000000000001' in text
        assert '"certified": true' in text
        assert '"algorithm": "fixed-point"' in text
        assert text.endswith("\n}\n")

    def test_floats_round_trip_exactly(self):
        rng = np.random.default_rng(2)
        for value in rng.standard_normal(200):
            parsed = json.loads(render_report_json(sample_fields(logdet=float(value))))
            assert parsed["logdet"] == float(value)

    def test_missing_key(self):
        fields = sample_fields()
        del fields["duality_gap"]
        with pytest.raises(ValueError, match="missing keys.*duality_gap"):
            render_report_json(fields)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            render_report_json(sample_fields(max_sigma=bad))

    def test_unsupported_type(self):
        with pytest.raises(TypeError):
            render_report_json(sample_fields(seed=[1, 2]))


class TestCsv:
    def test_golden_row(self):
        trace = SolveTrace()
        trace.add(1, 1.5, 2.0, 0.25)
        assert render_trace_csv(trace) == "iter,max_sigma,weight_sum,wall_ms\n1,1.5,2,0.25\n"

    def test_empty_trace_is_header_only(self):
        assert render_trace_csv(SolveTrace()) == TRACE_HEADER + "\n"

    def test_one_row_per_iterate(self, diamond):
        config = FixedPointConfig(epsilon=0.1, iterations=60, record_history=True)
        _, trace = fixed_point_solve(diamond, config)
        lines = render_trace_csv(trace).splitlines()
        assert lines[0] == TRACE_HEADER
        assert len(lines) == 61
        assert [int(line.split(",")[0]) for line in lines[1:]] == list(range(1, 61))
        # every recorded max score round-trips through the text
        for line, sigma in zip(lines[1:], trace.max_sigma):
            assert float(line.split(",")[1]) == sigma
