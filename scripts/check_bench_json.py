#!/usr/bin/env python3
"""Validates a bench JSON document.

Accepts the schemas the benches emit:
  hyperalloc-bench-faults-v1 (bench_faults degraded-mode reclaim sweep;
                             the zero-rate baseline must be clean)
  hyperalloc-bench-fleet-v1 (bench_fleet output: the `fleet` section,
                             plus its `telemetry` subobject when the
                             emitting binary has the pipeline and its
                             `huge` subobject for the fleet-wide
                             huge-frame reclaim split)
  hyperalloc-flight-v1      (a black-box flight-recorder dump frozen by
                             the telemetry pipeline; --min-epochs=N
                             additionally requires the ring to cover at
                             least N epochs before the trigger)

Stdlib-only on purpose: runs in CI containers with no extra packages.
Checks structure and types, plus the semantic gates the benches
themselves enforce (fleet thread-count determinism, spike SLO, a clean
zero-rate fault baseline).
"""
import json
import numbers
import sys


def fail(message):
    print(f"check_bench_json: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def require(doc, key, kind, ctx):
    if key not in doc:
        fail(f"{ctx}: missing key '{key}'")
    value = doc[key]
    if kind is numbers.Real:
        ok = isinstance(value, numbers.Real) and not isinstance(value, bool)
    else:
        ok = isinstance(value, kind)
    if not ok:
        fail(f"{ctx}.{key}: expected {kind}, got {type(value).__name__}")
    return value


def check_faults(doc):
    """hyperalloc-bench-faults-v1: degraded-mode reclaim sweep."""
    require(doc, "pr", str, "$")
    require(doc, "smoke", bool, "$")
    require(doc, "seed", numbers.Real, "$")
    candidates = require(doc, "candidates", list, "$")
    if not candidates:
        fail("candidates: empty")
    for candidate in candidates:
        name = require(candidate, "name", str, "candidates[]")
        ctx = f"candidates[{name}]"
        sweep = require(candidate, "sweep", list, ctx)
        if not sweep:
            fail(f"{ctx}: empty sweep")
        baseline = None
        for point in sweep:
            pctx = f"{ctx}.sweep[{point.get('rate')}]"
            for key in ("rate", "reclaim_gibps", "virtual_ms",
                        "start_bytes", "target_bytes", "achieved_bytes",
                        "faults", "retries", "rollbacks", "injected_total"):
                require(point, key, numbers.Real, pctx)
            for key in ("complete", "timed_out", "quarantined"):
                require(point, key, bool, pctx)
            require(point, "plan", str, pctx)
            if point["rate"] == 0:
                baseline = point
        # The zero-rate baseline is the injection-off determinism anchor:
        # no faults may be observed and the request must fully complete.
        if baseline is None:
            fail(f"{ctx}: no zero-rate baseline in sweep")
        if baseline["faults"] != 0 or baseline["injected_total"] != 0:
            fail(f"{ctx}: zero-rate run observed faults "
                 f"({baseline['faults']} on spans, "
                 f"{baseline['injected_total']} injected)")
        if not baseline["complete"]:
            fail(f"{ctx}: zero-rate run did not complete its reclaim")
        if baseline["reclaim_gibps"] <= 0:
            fail(f"{ctx}: zero-rate run reclaimed nothing")


def check_fleet_telemetry(tel, ctx):
    """The telemetry digest subobject embedded in a fleet section."""
    require(tel, "enabled", bool, ctx)
    for key in ("epochs", "alerts", "flight_dumps"):
        require(tel, key, numbers.Real, ctx)
    for key in ("telemetry_digest", "flight_digest"):
        value = require(tel, key, str, ctx)
        if not value.startswith("0x") or len(value) != 18:
            fail(f"{ctx}.{key}: expected 0x-prefixed 64-bit hex, "
                 f"got '{value}'")
    if tel["enabled"] and tel["epochs"] <= 0:
        fail(f"{ctx}: telemetry enabled but sampled no epochs")
    if not tel["enabled"] and tel["telemetry_digest"] != "0x" + "0" * 16:
        fail(f"{ctx}: telemetry disabled but digest nonzero")


def check_fleet(fleet, ctx):
    """The `fleet` section of a bench_fleet document."""
    for key in ("vms", "threads", "vm_mib", "host_gib", "horizon_s",
                "epoch_s", "resizes", "p50_resize_ms", "p99_resize_ms",
                "footprint_gib_min", "peak_gib", "pool_peak_gib",
                "wall_ms"):
        require(fleet, key, numbers.Real, ctx)
    for key in ("policy", "arrival", "candidate", "fleet_digest"):
        require(fleet, key, str, ctx)
    # Byte-identical VM outcomes across worker-thread counts is the
    # fleet engine's core contract; a run that broke it is not a result.
    if not require(fleet, "deterministic", bool, ctx):
        fail(f"{ctx}: VM digests differ between worker-thread counts")
    if fleet["vms"] < 2:
        fail(f"{ctx}: needs at least 2 VMs to mean anything")
    if fleet["resizes"] <= 0:
        fail(f"{ctx}: the policy issued no resizes")
    if fleet["p99_resize_ms"] < fleet["p50_resize_ms"]:
        fail(f"{ctx}: p99 resize latency below p50")
    admission = require(fleet, "admission", dict, ctx)
    for key in ("granted", "clipped", "rejected"):
        require(admission, key, numbers.Real, f"{ctx}.admission")
    if admission["granted"] <= 0:
        fail(f"{ctx}: admission control granted nothing")
    spike = require(fleet, "spike", dict, ctx)
    for key in ("vms", "mib", "time_to_reclaim_ms"):
        require(spike, key, numbers.Real, f"{ctx}.spike")
    for key in ("applied", "satisfied"):
        require(spike, key, bool, f"{ctx}.spike")
    # A fault-injected run may quarantine spiked VMs, in which case the
    # spike legitimately never satisfies; only clean runs must reclaim.
    fault_injected = bool(fleet.get("fault_plan"))
    if spike["vms"] > 0 and spike["applied"]:
        if not spike["satisfied"] and not fault_injected:
            fail(f"{ctx}: pressure spike never satisfied (time-to-reclaim "
                 f"SLO unmeasurable)")
        if spike["time_to_reclaim_ms"] < 0:
            fail(f"{ctx}: negative time-to-reclaim")
    # PR9 emitters embed the telemetry digests; older fleet-v1 documents
    # predate the pipeline and legitimately lack the key.
    if "telemetry" in fleet:
        check_fleet_telemetry(fleet["telemetry"], f"{ctx}.telemetry")
    # PR10 emitters report the fleet-wide huge-frame reclaim split.
    if "huge" in fleet:
        huge = fleet["huge"]
        hctx = f"{ctx}.huge"
        for key in ("reclaim_untouched", "reclaim_2m", "reclaim_4k",
                    "share"):
            require(huge, key, numbers.Real, hctx)
        if not 0.0 <= huge["share"] <= 1.0:
            fail(f"{hctx}: share {huge['share']} outside [0, 1]")


def check_flight(doc, min_epochs):
    """hyperalloc-flight-v1: one frozen flight-recorder dump."""
    trigger = require(doc, "trigger", dict, "$")
    kind = require(trigger, "kind", str, "trigger")
    if kind not in ("alert", "quarantine", "reject_spike"):
        fail(f"trigger.kind: unknown trigger '{kind}'")
    require(trigger, "epoch", numbers.Real, "trigger")
    require(trigger, "at_s", numbers.Real, "trigger")
    if kind == "quarantine":
        require(trigger, "vm", numbers.Real, "trigger")
    vms = require(doc, "vms", numbers.Real, "$")
    shards = require(doc, "shards", numbers.Real, "$")
    if vms <= 0 or shards <= 0:
        fail("flight dump covers no VMs/shards")
    for alert in require(doc, "alerts", list, "$"):
        actx = "alerts[]"
        require(alert, "epoch", numbers.Real, actx)
        require(alert, "at_s", numbers.Real, actx)
        if require(alert, "kind", str, actx) not in ("latency_burn",
                                                     "pressure_burn"):
            fail(f"{actx}: unknown alert kind '{alert['kind']}'")
        require(alert, "burn_fast", numbers.Real, actx)
        require(alert, "burn_slow", numbers.Real, actx)
    epochs = require(doc, "epochs", list, "$")
    if len(epochs) < min_epochs:
        fail(f"flight ring covers {len(epochs)} epochs, "
             f"need >= {min_epochs}")
    previous = None
    for entry in epochs:
        ectx = f"epochs[{entry.get('epoch')}]"
        for key in ("epoch", "at_s", "pressure", "committed_bytes",
                    "limit_bytes", "wss_bytes", "rss_bytes", "busy_vms",
                    "quarantined_vms", "granted", "clipped", "rejected",
                    "rejected_delta", "faults", "retries", "rollbacks",
                    "latency_burn_fast", "latency_burn_slow",
                    "pressure_burn_fast", "pressure_burn_slow"):
            require(entry, key, numbers.Real, ectx)
        if previous is not None and entry["epoch"] != previous + 1:
            fail(f"{ectx}: ring epochs not consecutive "
                 f"({previous} -> {entry['epoch']})")
        previous = entry["epoch"]
        shard_list = require(entry, "shards", list, ectx)
        if len(shard_list) != shards:
            fail(f"{ectx}: {len(shard_list)} shard rollups, "
                 f"expected {shards}")
        shard_vms = 0
        for shard in shard_list:
            sctx = f"{ectx}.shards[{shard.get('shard')}]"
            for key in ("shard", "vms", "limit_bytes", "wss_bytes",
                        "rss_bytes", "busy_vms", "quarantined_vms",
                        "faults"):
                require(shard, key, numbers.Real, sctx)
            shard_vms += shard["vms"]
        if shard_vms != vms:
            fail(f"{ectx}: shard rollups cover {shard_vms} VMs, "
                 f"expected {vms}")
        deltas = require(entry, "counter_deltas", dict, ectx)
        for name, value in deltas.items():
            if not isinstance(value, numbers.Real) or value <= 0:
                fail(f"{ectx}.counter_deltas.{name}: deltas must be "
                     f"positive (zero deltas are dropped)")
        omitted = require(entry, "vms_detail_omitted", numbers.Real, ectx)
        if omitted < 0:
            fail(f"{ectx}: vms_detail_omitted must be non-negative")
        detail = require(entry, "vms_detail", list, ectx)
        if len(detail) + omitted > vms:
            fail(f"{ectx}: vms_detail covers {len(detail)} rows plus "
                 f"{omitted} omitted, exceeding the {vms}-VM fleet")
        for vm in detail:
            vctx = f"{ectx}.vms_detail[{vm.get('vm')}]"
            for key in ("vm", "limit_bytes", "target_bytes",
                        "achieved_bytes", "wss_bytes", "rss_bytes",
                        "demand_bytes", "busy", "quarantined", "resizes",
                        "faults", "retries", "rollbacks",
                        "quarantined_frames"):
                require(vm, key, numbers.Real, vctx)
    # The trigger epoch must be the newest frame in the ring.
    if epochs and epochs[-1]["epoch"] != trigger["epoch"]:
        fail(f"trigger fired at epoch {trigger['epoch']} but the ring "
             f"ends at {epochs[-1]['epoch']}")


def main():
    min_epochs = 0
    paths = []
    for arg in sys.argv[1:]:
        if arg.startswith("--min-epochs="):
            min_epochs = int(arg[len("--min-epochs="):])
        else:
            paths.append(arg)
    if len(paths) != 1:
        fail("usage: check_bench_json.py [--min-epochs=N] BENCH.json")
    try:
        with open(paths[0], encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot parse {paths[0]}: {e}")

    schema = require(doc, "schema", str, "$")
    if schema == "hyperalloc-bench-faults-v1":
        check_faults(doc)
        print(f"check_bench_json: OK ({paths[0]}, {schema})")
        return
    if schema == "hyperalloc-bench-fleet-v1":
        check_fleet(require(doc, "fleet", dict, "$"), "fleet")
        print(f"check_bench_json: OK ({paths[0]}, {schema})")
        return
    if schema == "hyperalloc-flight-v1":
        check_flight(doc, min_epochs)
        print(f"check_bench_json: OK ({paths[0]}, {schema}, "
              f"{len(doc['epochs'])} ring epochs)")
        return
    fail(f"unknown schema '{schema}'")


if __name__ == "__main__":
    main()
