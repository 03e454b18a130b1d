"""Pattern demos on synthetic inputs: sparsity, recall, and output error."""

from __future__ import annotations

import numpy as np

from ..attention import dense_prefill, decode_step, masked_attention
from ..patterns import (
    PagePlan,
    ORACLE_LIMIT,
    attention_recall,
    build_plan,
    lookup,
    page_plan_rows,
    plan_sparsity,
    to_cell_mask,
)
from ..patterns.calibration import METHODS, check_params
from ..synthetic import GENERATOR_NAMES, make_inputs

__all__ = ["plan_demo"]


def plan_demo(
    method: str,
    seq_len: int,
    params: dict | None = None,
    target_sparsity: float | None = None,
    generator: str = "uniform",
    num_q_heads: int = 4,
    num_kv_heads: int = 2,
    head_dim: int = 32,
    seed: int = 0,
    oracle_limit: int = ORACLE_LIMIT,
) -> dict:
    """Builds one plan and reports achieved sparsity, plus recall and output
    approximation error when the sequence is small enough to afford the
    dense oracle.

    Either explicit ``params`` or a calibrated ``target_sparsity`` level must
    be given; the latter resolves parameters from the bundled table.  Explicit
    ``params`` must hold exactly the keys ``check_params`` accepts.
    """
    if generator not in GENERATOR_NAMES:
        raise ValueError(f"unknown generator {generator!r}")
    inputs = make_inputs(
        generator,
        seq_len=seq_len,
        num_q_heads=num_q_heads,
        num_kv_heads=num_kv_heads,
        head_dim=head_dim,
        seed=seed,
    )
    if params:
        check_params(method, params)
        plan = METHODS[method].build(inputs, params)
    elif target_sparsity is not None:
        entry = lookup(method, seq_len, target_sparsity)
        plan = build_plan(entry, inputs)
        target_sparsity = entry.target_sparsity
    else:
        raise ValueError("give explicit params or a calibrated target_sparsity")

    report = plan_sparsity(plan, target_sparsity=target_sparsity)
    result = {
        "method": method,
        "generator": generator,
        "seq_len": seq_len,
        "report": report,
        "recall": None,
        "max_output_error": None,
    }
    if seq_len <= oracle_limit:
        result["recall"] = attention_recall(plan, inputs)
        dense = dense_prefill(inputs)
        if isinstance(plan, PagePlan):
            rows = page_plan_rows(plan, inputs.group_map)
            approx = decode_step(inputs, rows)
            error = np.abs(approx.output[:, 0] - dense.output[:, -1]).max()
        else:
            approx = masked_attention(inputs, to_cell_mask(plan, inputs.group_map))
            error = np.abs(approx.output - dense.output).max()
        result["max_output_error"] = float(error)
    return result
