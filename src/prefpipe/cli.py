"""Command-line front end.

Every subcommand reads explicit files, writes explicit files, and drops a run
manifest (`<primary output>.manifest.json`) recording the resolved config, the
seed, and content digests of every input and output, so any artifact can be
traced back to exactly what produced it.

Exit codes: 0 success, 1 stage failure (categorized message on stderr),
2 usage/argument errors (argparse).

Each subcommand imports the stage modules, the model transport and the YAML
parser only when it runs, so a command loads just what it uses.
"""

import argparse
import contextlib
import datetime
import hashlib
import itertools
import logging
import math
import os
import random
import sys
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

from . import core, curriculum
from ._util import Tally, build_config, derive_seed, json_dumps, jsonl_writer
from ._util import read_config, read_records, sha256_file, write_json, write_jsonl
from .errors import ConfigError, PipelineError, ValidationError

if TYPE_CHECKING:
    from .modelio import ModelClient

logger = logging.getLogger("prefpipe.cli")


# ---------------------------------------------------------------------------
# Stages, manifests and config plumbing
# ---------------------------------------------------------------------------


@dataclass
class Stage:
    """What one subcommand did; ``main`` records it in the run manifest.

    ``None`` paths are optional files that were not given. The manifest sits
    next to ``anchor``, else next to the first output; ``command`` replaces
    the subcommand name it records."""

    config: dict
    inputs: list[str | None]
    outputs: list[str | None]
    stats: dict
    message: str
    anchor: str | None = None
    command: str | None = None


class Clients(dict[str, "ModelClient"]):
    """The model clients one run builds, by role. ``main`` hands a fresh
    registry to the subcommand and writes each client's ``stats`` to the
    manifest's ``telemetry``."""

    def build(self, role: str, section: dict | None = None, *, path: str | None = None) -> "ModelClient":
        """Build the client for ``role`` from its ``--config`` file section,
        or from the endpoint file at ``path``, and register it under ``role``."""
        from .modelio import ModelClient, ModelEndpoint, load_endpoint

        if path is None and not section:
            raise ConfigError(f"config is missing the {role!r} endpoint section")
        self[role] = ModelClient(load_endpoint(path) if path is not None else ModelEndpoint.from_dict(section))
        return self[role]


class ManifestWriter:
    """Collects inputs/outputs for one run and writes the manifest at the end."""

    def __init__(self, command: str, seed: int, config: dict, started_at: str):
        self.command = command
        self.seed = seed
        self.config = config
        self.inputs: dict[str, str] = {}
        self.outputs: dict[str, str] = {}
        self.stats: dict = {}
        self.telemetry: dict = {}
        self.started_at = started_at

    def add_input(self, path: str | None) -> None:
        if path:
            self.inputs[path] = sha256_file(path)

    def add_output(self, path: str | None) -> None:
        if path:
            self.outputs[path] = sha256_file(path)

    def write(self, anchor: str) -> str:
        path = anchor if anchor.endswith("manifest.json") else anchor + ".manifest.json"
        manifest = {
            "command": self.command,
            "seed": self.seed,
            "config": self.config,
            "config_digest": hashlib.sha256(json_dumps(self.config, path).encode()).hexdigest(),
            "inputs": self.inputs,
            "outputs": self.outputs,
            "stats": self.stats,
            "telemetry": self.telemetry,
            "started_at": self.started_at,
            "finished_at": _now(),
        }
        write_json(path, manifest)
        return path


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _stage_config(args: argparse.Namespace, cls: type, sections: tuple[str, ...] = (), preset=None, **fixed) -> tuple:
    """Build ``cls`` with precedence flag > ``--config`` file > ``preset`` >
    field default. Flags are the namespace attributes named like the fields;
    ``fixed`` fields are not knobs. Returns the config, its knobs as the
    manifest records them, and the file's mapping (endpoint sections too)."""
    file_cfg = read_config(args.config) if args.config else {}
    knobs = [f.name for f in fields(cls) if f.name not in fixed]
    base = {k: getattr(preset, k) for k in knobs} if preset else {}
    flags = {k: getattr(args, k) for k in knobs if getattr(args, k, None) is not None}
    config = build_config(cls, base, file_cfg, flags, what=args.command, sections=sections, **fixed)
    return config, {k: getattr(config, k) for k in knobs}, file_cfg


def _optional_writer(path: str | None):
    """``jsonl_writer(path)``, or a block that yields None when no path is given."""
    return jsonl_writer(path) if path else contextlib.nullcontext(None)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_simlab_gen(args: argparse.Namespace, skipped: Tally, clients: Clients) -> Stage:
    from . import simlab

    for flag, count in (("--users", args.users), ("--dim", args.dim), ("--history-len", args.history_len)):
        if count < 1:
            raise ValidationError(f"{flag} must be >= 1, got {count}")
    for flag, rate in (("--context-rate", args.context_rate), ("--weak-quality", args.weak_quality)):
        if not 0.0 <= rate <= 1.0:
            raise ValidationError(f"{flag} must be in [0, 1], got {rate}")
    for flag, value in (("--kappa", args.kappa), ("--margin", args.margin)):
        if not math.isfinite(value):
            raise ValidationError(f"{flag} must be finite, got {value}")
    if args.margin <= 0:
        raise ValidationError(f"--margin must be > 0, got {args.margin}")
    stage_seed = derive_seed(args.seed, "simlab-gen")
    os.makedirs(args.out_dir, exist_ok=True)
    paths = [os.path.join(args.out_dir, name) for name in ("histories.jsonl", "truth.jsonl", "scores.jsonl")]
    users = score_rows = 0
    with (
        jsonl_writer(paths[0]) as write_history,
        jsonl_writer(paths[1]) as write_truth,
        jsonl_writer(paths[2]) as write_score,
    ):
        for hist, latent, diffs in simlab.gen_users(
            stage_seed, args.users, args.dim, args.history_len, args.margin, args.context_rate,
            args.dataset_tag, args.user_prefix,
        ):
            write_history(hist.to_dict())
            write_truth(simlab.truth_record(hist.user_id, latent))
            scores = simlab.score_user(hist.user_id, range(len(hist)), diffs, args.kappa, args.weak_quality, stage_seed)
            for row in scores:
                write_score(row)
            users += 1
            score_rows += len(hist)
    config = {
        "users": args.users, "dim": args.dim, "history_len": args.history_len,
        "margin": args.margin, "context_rate": args.context_rate, "kappa": args.kappa,
        "weak_quality": args.weak_quality, "user_prefix": args.user_prefix, "dataset_tag": args.dataset_tag,
    }
    return Stage(
        config, [], paths, {"users": users, "score_rows": score_rows},
        f"wrote {users} users to {args.out_dir}",
        anchor=os.path.join(args.out_dir, "manifest.json"),
    )


def cmd_synthesize_sft(args: argparse.Namespace, skipped: Tally, clients: Clients) -> Stage:
    from . import synthpipe

    synth_config, cfg, file_cfg = _stage_config(
        args, synthpipe.SynthConfig, ("generator", "judge", "teacher"), seed=derive_seed(args.seed, "synthesize-sft")
    )
    generator, judge = (clients.build(role, file_cfg.get(role)) for role in ("generator", "judge"))
    # without a teacher section the generator merges too, within its own in-flight limit
    teacher = clients.build("teacher", file_cfg["teacher"]) if file_cfg.get("teacher") else generator

    tract: dict[str, dict[int, float]] = {}
    for s in curriculum.load_scores(args.scores):
        tract.setdefault(s.user_id, {})[s.index] = s.s_tract

    with jsonl_writer(args.out) as write:
        _, stats = synthpipe.run_corpus(
            core.iter_histories(args.histories), tract, generator, judge, teacher, synth_config,
            jobs=args.jobs, sink=lambda rec: write(rec.to_dict()), skipped=skipped,
        )
    return Stage(
        cfg, [args.histories, args.scores, args.config], [args.out], stats,
        f"synthesized {stats['records']} records from {stats['users_with_records']}/{stats['users_in']} users",
    )


def cmd_prune(args: argparse.Namespace, skipped: Tally, clients: Clients) -> Stage:
    preset = curriculum.PRESET_CONFIGS[args.preset] if args.preset else None
    prune_config, cfg, _ = _stage_config(args, curriculum.PruneConfig, preset=preset)

    scores = curriculum.load_scores(args.scores)
    kept = curriculum.prune(scores, prune_config)
    instances = curriculum.build_rl_instances(kept)
    write_jsonl(args.out, (inst.to_dict() for inst in instances))
    if args.keep_scores:  # the kept points' own sidecar lines, so the file is a --scores input
        write_jsonl(args.keep_scores, (s.to_dict() for s in kept))
    return Stage(
        cfg, [args.scores, args.config], [args.out, args.keep_scores],
        {"scores_in": len(scores), "kept": len(kept), "instances": len(instances)},
        f"kept {len(kept)}/{len(scores)} points -> {len(instances)} instances",
    )


def cmd_rollout(args: argparse.Namespace, skipped: Tally, clients: Clients) -> Stage:
    from . import rlengine

    config, cfg, file_cfg = _stage_config(
        args, rlengine.RolloutConfig, ("policy", "judge"), seed=derive_seed(args.seed, "rollout")
    )
    policy, judge = (clients.build(role, file_cfg.get(role)) for role in ("policy", "judge"))

    instances = list(read_records(args.instances, curriculum.RlInstance))
    records = 0
    # --histories is checked whole before the first call, then each instance's
    # user is read back from its line; each tree is exported and dumped as it
    # arrives, and both files appear only once every tree is written
    with (
        core.HistoryIndex(args.histories) as histories,
        jsonl_writer(args.out) as write_record,
        _optional_writer(args.trees) as write_tree,
    ):

        def emit(tree) -> None:
            nonlocal records
            for rec in rlengine.export_batch([tree]):
                write_record(rec.to_dict())
                records += 1
            if write_tree:
                write_tree(tree.to_dict())

        _, stats = rlengine.run_rollouts(policy, judge, instances, histories, config, jobs=args.jobs, sink=emit, skipped=skipped)
    return Stage(
        cfg, [args.histories, args.instances, args.config], [args.out, args.trees],
        {**stats, "records": records},
        f"rolled out {stats['trees']}/{stats['instances_in']} instances "
        f"({records} records, mean reward {stats['mean_immediate_reward']})",
    )


def cmd_loss_check(args: argparse.Namespace, skipped: Tally, clients: Clients) -> None:
    from . import rlengine

    clip_eps = rlengine.CLIP_EPS if args.clip_eps is None else args.clip_eps
    seen = 0

    def records():
        nonlocal seen
        for seen, rec in enumerate(read_records(args.batch, rlengine.TrainingRecord), 1):
            yield rec

    # both inputs are folded one line at a time; tee's buffer holds one record
    if args.self_check:
        batch, own = itertools.tee(records())
        new_logprobs = (r.old_token_logprobs for r in own)
    else:
        if not args.new_logprobs:
            raise ConfigError("loss-check needs --new-logprobs (or --self-check)")
        rows = read_records(args.new_logprobs, rlengine.LogprobsRow)
        batch, new_logprobs = records(), (row.logprobs for row in rows)
    loss = rlengine.surrogate_loss(batch, new_logprobs, clip_eps=clip_eps)
    shown_eps = None if math.isinf(clip_eps) else clip_eps  # JSON has no inf: clipping off prints as null
    print(json_dumps({"loss": loss, "records": seen, "clip_eps": shown_eps}, "loss-check output"))


def cmd_stream_infer(args: argparse.Namespace, skipped: Tally, clients: Clients) -> Stage:
    from . import streamer

    if args.chunks < 1:  # before any user is read
        raise ValidationError(f"chunk count must be >= 1, got {args.chunks}")
    generator = clients.build("generator", path=args.generator)
    os.makedirs(args.state_dir, exist_ok=True)
    states_path = os.path.join(args.state_dir, "states.jsonl")
    summaries_path = os.path.join(args.state_dir, "summaries.jsonl")
    users = 0
    states = skipped.map(
        lambda h: streamer.infer_streaming(generator, h, args.chunks), core.iter_histories(args.histories),
        args.jobs, lambda h: f"user {h.user_id}",
    )
    # each user's state and summary are written as that user finishes
    with jsonl_writer(states_path) as write_state, jsonl_writer(summaries_path) as write_summary:
        for state in states:
            if state is not None:
                write_state(state.to_dict())
                write_summary(core.summary_record(state.user_id, state.current))
                users += 1
    return Stage(
        {"chunks": args.chunks}, [args.histories, args.generator], [states_path, summaries_path],
        {"users": users}, f"streamed {users} users in {args.chunks} chunk(s)",
        anchor=os.path.join(args.state_dir, "manifest.json"),
    )


def cmd_build_transfer(args: argparse.Namespace, skipped: Tally, clients: Clients) -> Stage:
    from . import transferbench

    config: dict = {"mode": args.mode}
    if args.mode == "cross-domain":
        if not (args.histories_a and args.histories_b and args.embedder):
            raise ConfigError("cross-domain needs --histories-a, --histories-b, --embedder")
        stats = _cross_domain(args, clients.build("embedder", path=args.embedder), skipped)
        config["top_k"] = args.top_k
        inputs, extra_output = [args.histories_a, args.histories_b], args.out_histories
    elif args.mode == "multi-interest":
        if not (args.histories and args.donors):
            raise ConfigError("multi-interest needs --histories and --donors")
        donors = core.load_histories(args.donors)
        if not donors:
            raise ConfigError("donor corpus is empty")
        rng = random.Random(derive_seed(args.seed, "build-transfer", "pairing"))
        noise = transferbench.NoiseConfig(intensity=args.intensity, seed=derive_seed(args.seed, "inject"))
        users = 0
        with jsonl_writer(args.out) as write_fused, _optional_writer(args.provenance) as write_provenance:
            for result in transferbench.inject_corpus(core.iter_histories(args.histories), donors, noise, rng, skipped):
                write_fused(result.history.to_dict())
                if write_provenance:
                    write_provenance(
                        {
                            "user_id": result.history.user_id,
                            "donor_user": result.donor_user,
                            "injected_positions": list(result.injected_positions),
                            "source_indices": list(result.source_indices),
                        }
                    )
                users += 1
        config["intensity"] = args.intensity
        inputs, extra_output = [args.histories, args.donors], args.provenance
        stats = {"users": users}
    else:  # positive-only
        if not args.histories:
            raise ConfigError("positive-only needs --histories")
        users = 0
        with jsonl_writer(args.out) as write:
            for history in core.iter_histories(args.histories):
                write(core.strip_negatives(history).to_dict())
                users += 1
        inputs, extra_output = [args.histories], None
        stats = {"users": users}
    return Stage(
        config, inputs, [args.out, extra_output], stats, f"build-transfer {args.mode}: wrote {args.out}",
        command=f"build-transfer:{args.mode}",
    )


def _cross_domain(args: argparse.Namespace, client: "ModelClient", skipped: Tally) -> dict:
    """Count the lines of A and B, then read A, then B, once each. Each
    user's last pair is held out as the target and the rest is written to
    ``--out-histories`` and embedded; only the id, the vector and the target
    are kept for the ranking, which covers the users that were embedded."""
    from . import evalharness, transferbench

    if args.top_k < 1:  # before any embedding call is spent
        raise ValidationError(f"top_k must be >= 1, got {args.top_k}")
    # a user is one non-blank line, so this bounds the pairs before any
    # embedding call; match_users checks again, since the holdout may drop users
    available = math.prod(_count_nonblank_lines(path) for path in (args.histories_a, args.histories_b))
    if args.top_k > available:
        raise ValidationError(f"top_k {args.top_k} exceeds the {available} available pairs")
    seen: set[str] = set()  # the ids of A, which B may not repeat
    targets: dict[str, core.InteractionTriple] = {}

    def held_out(write_history):
        for side, path in enumerate((args.histories_a, args.histories_b)):
            for trimmed, inst in evalharness.iter_holdout(core.iter_histories(path, seen), skipped):
                if write_history:
                    write_history(trimmed.to_dict())
                targets[inst.user_id] = core.InteractionTriple(
                    index=0, chosen=inst.item_a, rejected=inst.item_b, context=inst.context
                )
                yield side, trimmed

    def embed(side_history: tuple[int, core.UserHistory]) -> tuple[int, "transferbench.Embedded"]:
        side, history = side_history
        return side, (history.user_id, transferbench.embed_history(client, history))

    embedded: tuple[list, list] = ([], [])
    with _optional_writer(args.out_histories) as write_history:
        embeds = skipped.map(
            embed, held_out(write_history), args.jobs, lambda side_history: f"user {side_history[1].user_id}"
        )
        for result in embeds:
            if result is not None:
                embedded[result[0]].append(result[1])
        pairs = transferbench.match_users(client, embedded[0], embedded[1], args.top_k)
        instances, stats = transferbench.swap_targets(pairs, targets, skipped)
        write_jsonl(args.out, instances)
    return stats


def _count_nonblank_lines(path: str) -> int:
    with open(path, "rb") as fh:
        return sum(1 for raw in fh if raw.strip())


def cmd_evaluate(args: argparse.Namespace, skipped: Tally, clients: Clients) -> Stage:
    from . import evalharness

    downstream = clients.build("downstream", path=args.downstream)
    summaries = core.load_summaries(args.summaries)
    instances = list(read_records(args.instances, evalharness.EvalInstance))
    report, outcomes = evalharness.evaluate_selection(
        downstream, summaries, instances,
        seed=derive_seed(args.seed, "evaluate"), strict=args.strict, label=args.label, jobs=args.jobs, skipped=skipped,
    )
    write_json(args.out, report.to_dict())
    if args.outcomes:
        write_jsonl(
            args.outcomes,
            (
                {
                    **o.instance.to_dict(),
                    "swapped": o.swapped, "reply": o.reply, "parsed": o.parsed,
                    "correct": o.correct, "failed": o.failed,
                }
                for o in outcomes
            ),
        )
    return Stage(
        {"strict": args.strict, "label": args.label}, [args.summaries, args.instances, args.downstream],
        [args.out, args.outcomes], report.to_dict(), evalharness.format_reports([report]),
    )


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prefpipe",
        description="Preference-reasoning pipeline engine: synthesis, pruning, rollouts, streaming, benchmarks.",
    )
    parser.add_argument("--seed", type=int, default=0, help="global seed; stages derive their own from it")
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="how many independent model calls may run at once at each fan-out level (users, then the "
        "calls within one user); each endpoint's max_in_flight still bounds its requests, and outputs "
        "are byte-identical at any --jobs",
    )
    parser.add_argument("--log-level", default="warning", choices=["debug", "info", "warning", "error"])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simlab-gen", help="generate a synthetic corpus with ground truth and score sidecar")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--users", type=int, default=50)
    p.add_argument("--dim", type=int, default=8)
    p.add_argument("--history-len", type=int, default=12)
    p.add_argument("--margin", type=float, default=0.5)
    p.add_argument("--context-rate", type=float, default=0.5)
    p.add_argument("--kappa", type=float, default=8.0)
    p.add_argument("--weak-quality", type=float, default=0.5)
    p.add_argument("--user-prefix", default="u")
    p.add_argument("--dataset-tag", default="simlab")
    p.set_defaults(func=cmd_simlab_gen)

    p = sub.add_parser("synthesize-sft", help="generate-validate-merge SFT records")
    p.add_argument("--histories", required=True)
    p.add_argument("--scores", required=True)
    p.add_argument("--config", required=True, help="YAML/JSON with generator/judge[/teacher] endpoints and knobs")
    p.add_argument("--out", required=True)
    p.add_argument("--num-segments", type=int)
    p.add_argument("--tau-tract", type=float)
    p.add_argument("--max-targets", type=int)
    p.add_argument("--accuracy-threshold", type=float)
    p.set_defaults(func=cmd_synthesize_sft)

    p = sub.add_parser("prune", help="curriculum-filter a score sidecar into RL instances")
    p.add_argument("--scores", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.add_argument("--preset", choices=sorted(curriculum.PRESET_CONFIGS))
    p.add_argument("--alpha", type=float)
    p.add_argument("--tract-low", type=float)
    p.add_argument("--tract-high", type=float)
    p.add_argument("--tail-fraction", type=float)
    p.add_argument("--tail-side", choices=["hardest", "easiest"])
    p.add_argument("--keep-scores", help="optional path for the kept points' score sidecar lines (a valid --scores)")
    p.set_defaults(func=cmd_prune)

    p = sub.add_parser("rollout", help="two-stage rollouts with rewards, advantages, and batch export")
    p.add_argument("--instances", required=True)
    p.add_argument("--histories", required=True)
    p.add_argument("--config", required=True, help="YAML/JSON with policy/judge endpoints and knobs")
    p.add_argument("--out", required=True)
    p.add_argument("--trees", help="optional path for full rollout tree dumps")
    p.add_argument("--gamma", type=float)
    p.add_argument("--group-size", type=int)
    p.set_defaults(func=cmd_rollout)

    p = sub.add_parser("loss-check", help="compute the clipped surrogate loss for an exported batch")
    p.add_argument("--batch", required=True)
    p.add_argument("--new-logprobs", help="JSONL rows {logprobs: [...]} aligned with the batch")
    p.add_argument("--self-check", action="store_true", help="use the batch's own logprobs (ratio 1)")
    p.add_argument("--clip-eps", type=float, help="ratio clip (default: rlengine.CLIP_EPS; inf disables clipping, printed as null)")
    p.set_defaults(func=cmd_loss_check)

    p = sub.add_parser("stream-infer", help="streaming inference over a corpus")
    p.add_argument("--histories", required=True)
    p.add_argument("--generator", required=True, help="endpoint config file")
    p.add_argument("--chunks", type=int, default=2)
    p.add_argument("--state-dir", required=True)
    p.set_defaults(func=cmd_stream_infer)

    p = sub.add_parser("build-transfer", help="construct transfer-benchmark corpora")
    p.add_argument("--mode", required=True, choices=["cross-domain", "multi-interest", "positive-only"])
    p.add_argument("--out", required=True)
    p.add_argument("--histories")
    p.add_argument("--histories-a")
    p.add_argument("--histories-b")
    p.add_argument("--embedder", help="endpoint config file (cross-domain)")
    p.add_argument("--top-k", type=int, default=1000)
    p.add_argument("--out-histories", help="optional combined trimmed corpus (cross-domain)")
    p.add_argument("--donors", help="donor corpus (multi-interest)")
    p.add_argument("--intensity", type=float, default=0.3)
    p.add_argument("--provenance", help="optional injection provenance output (multi-interest)")
    p.set_defaults(func=cmd_build_transfer)

    p = sub.add_parser("evaluate", help="selection-style evaluation of stored summaries")
    p.add_argument("--summaries", required=True)
    p.add_argument("--instances", required=True)
    p.add_argument("--downstream", required=True, help="endpoint config file")
    p.add_argument("--out", required=True, help="report JSON path")
    p.add_argument("--outcomes", help="optional per-instance outcome JSONL")
    p.add_argument("--strict", action="store_true", help="accept only clean JSON selections")
    p.add_argument("--label", default="eval")
    p.set_defaults(func=cmd_evaluate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error(f"argument --jobs: must be >= 1, got {args.jobs}")
    logging.basicConfig(
        level=getattr(logging, args.log_level.upper()),
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )
    started_at = _now()
    skipped, clients = Tally(), Clients()
    try:
        stage = args.func(args, skipped, clients)
        if stage is not None:
            mw = ManifestWriter(stage.command or args.command, args.seed, stage.config, started_at)
            for path in stage.inputs:
                mw.add_input(path)
            for path in stage.outputs:
                mw.add_output(path)
            mw.stats = {**stage.stats, "skipped_by_reason": skipped.counts()}
            mw.telemetry = {role: dict(sorted(client.stats.items())) for role, client in clients.items()}
            skipped.log(logger, logging.WARNING, "item(s) skipped")
            for role, client in clients.items():
                if client.stats["truncations"]:
                    logger.warning(
                        "%s: %d prompt(s) truncated to %d tokens, %d leading token(s) dropped", role,
                        client.stats["truncations"], client.endpoint.max_prompt_tokens, client.stats["truncated_tokens"],
                    )
            mw.write(stage.anchor or stage.outputs[0])
            print(stage.message)
    except PipelineError as exc:
        print(f"error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error (io): {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
