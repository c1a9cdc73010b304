"""Command-line front end.

Every subcommand reads and writes explicit files (``STAGE_FILES`` declares both
and their flags; ``main`` opens the outputs and commits them together) and drops a
run manifest recording the resolved config, the seed, and content digests of every
input and output, so any artifact can be traced back to exactly what produced it.

Exit codes: 0 success, 1 stage failure (categorized message on stderr), 2 usage
errors: argparse's, and ``_stage_files``' refusals before any file is read.

Each subcommand imports the stage modules, the model transport and the YAML
parser only when it runs, so a command loads just what it uses.
"""

import argparse
import contextlib
import datetime
import functools
import hashlib
import itertools
import logging
import math
import os
import random
import sys
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Iterator

from . import core, curriculum
from ._util import Tally, atomic_open, build_config, count_nonblank_lines, derive_seed, json_dumps
from ._util import read_config, read_records, sha256_file, write_json, write_record
from .errors import ConfigError, PipelineError, ValidationError

if TYPE_CHECKING:
    from .modelio import ModelClient

logger = logging.getLogger("prefpipe.cli")


# ---------------------------------------------------------------------------
# Stages, manifests and config plumbing
# ---------------------------------------------------------------------------


@dataclass
class Stage:
    """What one subcommand did; ``main`` records it in the run manifest,
    beside the files that ``STAGE_FILES`` declares for the stage."""

    config: dict
    stats: dict
    message: str


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

    def add_input(self, path: str) -> None:
        self.inputs[path] = sha256_file(path)

    def add_output(self, path: str) -> None:
        self.outputs[path] = sha256_file(path)

    def write(self, path: str) -> str:
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
    write_history, write_truth, write_score = args.outputs
    users = score_rows = 0
    for hist, latent, diffs in simlab.gen_users(
        stage_seed, args.users, args.dim, args.history_len, args.margin, args.context_rate,
        args.dataset_tag, args.user_prefix,
    ):
        write_history(hist.to_dict())
        write_truth(simlab.truth_record(hist.user_id, latent))
        for row in simlab.score_user(hist.user_id, range(len(hist)), diffs, args.kappa, args.weak_quality, stage_seed):
            write_score(row)
        users += 1
        score_rows += len(hist)
    knobs = "users", "dim", "history_len", "margin", "context_rate", "kappa", "weak_quality", "user_prefix", "dataset_tag"
    config = {knob: getattr(args, knob) for knob in knobs}
    return Stage(config, {"users": users, "score_rows": score_rows}, f"wrote {users} users to {args.out_dir}")


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

    (write,) = args.outputs
    _, stats = synthpipe.run_corpus(
        core.iter_histories(args.histories), tract, generator, judge, teacher, synth_config,
        jobs=args.jobs, sink=lambda rec: write(rec.to_dict()), skipped=skipped,
    )
    message = f"synthesized {stats['records']} records from {stats['users_with_records']}/{stats['users_in']} users"
    return Stage(cfg, stats, message)


def cmd_prune(args: argparse.Namespace, skipped: Tally, clients: Clients) -> Stage:
    preset = curriculum.PRESET_CONFIGS[args.preset] if args.preset else None
    prune_config, cfg, _ = _stage_config(args, curriculum.PruneConfig, preset=preset)

    scores = curriculum.load_scores(args.scores)
    kept = curriculum.prune(scores, prune_config)
    instances = curriculum.build_rl_instances(kept)
    write_instance, write_kept = args.outputs
    for inst in instances:
        write_instance(inst.to_dict())
    if write_kept:  # the kept points' own sidecar lines, so the file is a --scores input
        for s in kept:
            write_kept(s.to_dict())
    stats = {"scores_in": len(scores), "kept": len(kept), "instances": len(instances)}
    return Stage(cfg, stats, f"kept {len(kept)}/{len(scores)} points -> {len(instances)} instances")


def cmd_rollout(args: argparse.Namespace, skipped: Tally, clients: Clients) -> Stage:
    from . import rlengine

    config, cfg, file_cfg = _stage_config(
        args, rlengine.RolloutConfig, ("policy", "judge"), seed=derive_seed(args.seed, "rollout")
    )
    policy, judge = (clients.build(role, file_cfg.get(role)) for role in ("policy", "judge"))

    instances = list(read_records(args.instances, curriculum.RlInstance))
    write_batch, write_tree = args.outputs
    records = 0
    # --histories is checked whole before the first call, then each instance's
    # user is read back from its line; each tree is exported and dumped as it arrives
    with core.HistoryIndex(args.histories) as histories:

        def emit(tree) -> None:
            nonlocal records
            for rec in rlengine.export_batch([tree]):
                write_batch(rec.to_dict())
                records += 1
            if write_tree:
                write_tree(tree.to_dict())

        _, stats = rlengine.run_rollouts(policy, judge, instances, histories, config, jobs=args.jobs, sink=emit, skipped=skipped)
    return Stage(
        cfg, {**stats, "records": records},
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
    write_state, write_summary = args.outputs
    users = 0
    states = skipped.map(
        lambda h: streamer.infer_streaming(generator, h, args.chunks), core.iter_histories(args.histories),
        args.jobs, lambda h: f"user {h.user_id}",
    )
    for state in states:  # each user's state and summary are written as that user finishes
        if state is not None:
            write_state(state.to_dict())
            write_summary(core.summary_record(state.user_id, state.current))
            users += 1
    return Stage({"chunks": args.chunks}, {"users": users}, f"streamed {users} users in {args.chunks} chunk(s)")


def cmd_build_transfer(args: argparse.Namespace, skipped: Tally, clients: Clients) -> Stage:
    from . import transferbench

    config: dict = {"mode": args.mode}
    if args.mode == "cross-domain":
        config["top_k"] = MODE_KNOBS["--top-k"][1] if args.top_k is None else args.top_k
        stats = _cross_domain(args, config["top_k"], clients.build("embedder", path=args.embedder), skipped)
    elif args.mode == "multi-interest":
        donors = core.load_histories(args.donors)
        if not donors:
            raise ConfigError("donor corpus is empty")
        rng = random.Random(derive_seed(args.seed, "build-transfer", "pairing"))
        config["intensity"] = MODE_KNOBS["--intensity"][1] if args.intensity is None else args.intensity
        noise = transferbench.NoiseConfig(intensity=config["intensity"], seed=derive_seed(args.seed, "inject"))
        write_fused, write_provenance = args.outputs
        users = 0
        for result in transferbench.inject_corpus(core.iter_histories(args.histories), donors, noise, rng, skipped):
            write_fused(result.history.to_dict())
            if write_provenance:
                write_provenance({
                    "user_id": result.history.user_id,
                    "donor_user": result.donor_user,
                    "injected_positions": list(result.injected_positions),
                    "source_indices": list(result.source_indices),
                })
            users += 1
        stats = {"users": users}
    else:  # positive-only
        (write,) = args.outputs
        users = 0
        for history in core.iter_histories(args.histories):
            write(core.strip_negatives(history).to_dict())
            users += 1
        stats = {"users": users}
    return Stage(config, stats, f"build-transfer {args.mode}: wrote {args.out}")


def _cross_domain(args: argparse.Namespace, top_k: int, client: "ModelClient", skipped: Tally) -> dict:
    """Count the lines of A and B, then read A, then B, once each. Each
    user's last pair is held out as the target and the rest is written to
    ``--out-histories`` and embedded; only the id, the vector and the target
    are kept for the ranking, which covers the users that were embedded."""
    from . import evalharness, transferbench

    if top_k < 1:  # before any embedding call is spent
        raise ValidationError(f"top_k must be >= 1, got {top_k}")
    # a user is one non-blank line, so this bounds the pairs before any
    # embedding call; match_users checks again, since the holdout may drop users
    available = math.prod(count_nonblank_lines(path) for path in (args.histories_a, args.histories_b))
    if top_k > available:
        raise ValidationError(f"top_k {top_k} exceeds the {available} available pairs")
    seen: set[str] = set()  # the ids of A, which B may not repeat
    write_instance, write_history = args.outputs
    targets: dict[str, core.InteractionTriple] = {}

    def held_out():
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
    embeds = skipped.map(embed, held_out(), args.jobs, lambda side_history: f"user {side_history[1].user_id}")
    for result in embeds:
        if result is not None:
            embedded[result[0]].append(result[1])
    pairs = transferbench.match_users(client, embedded[0], embedded[1], top_k)
    instances, stats = transferbench.swap_targets(pairs, targets, skipped)
    for inst in instances:
        write_instance(inst)
    return stats


def cmd_evaluate(args: argparse.Namespace, skipped: Tally, clients: Clients) -> Stage:
    from . import evalharness

    downstream = clients.build("downstream", path=args.downstream)
    summaries = core.load_summaries(args.summaries)
    instances = list(read_records(args.instances, evalharness.EvalInstance))
    report, outcomes = evalharness.evaluate_selection(
        downstream, summaries, instances,
        seed=derive_seed(args.seed, "evaluate"), strict=args.strict, label=args.label, jobs=args.jobs, skipped=skipped,
    )
    write_report, write_outcome = args.outputs
    write_report(report.to_dict(), document=True)
    if write_outcome:
        for o in outcomes:
            write_outcome({**o.instance.to_dict(), "swapped": o.swapped, "reply": o.reply, "parsed": o.parsed,
                           "correct": o.correct, "failed": o.failed})
    return Stage({"strict": args.strict, "label": args.label}, report.to_dict(), evalharness.format_reports([report]))


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
    p.add_argument("--num-segments", type=int)
    p.add_argument("--tau-tract", type=float)
    p.add_argument("--max-targets", type=int)
    p.add_argument("--accuracy-threshold", type=float)
    p.set_defaults(func=cmd_synthesize_sft)

    p = sub.add_parser("prune", help="curriculum-filter a score sidecar into RL instances")
    p.add_argument("--preset", choices=sorted(curriculum.PRESET_CONFIGS))
    p.add_argument("--alpha", type=float)
    p.add_argument("--tract-low", type=float)
    p.add_argument("--tract-high", type=float)
    p.add_argument("--tail-fraction", type=float)
    p.add_argument("--tail-side", choices=["hardest", "easiest"])
    p.set_defaults(func=cmd_prune)

    p = sub.add_parser("rollout", help="two-stage rollouts with rewards, advantages, and batch export")
    p.add_argument("--gamma", type=float)
    p.add_argument("--group-size", type=int)
    p.set_defaults(func=cmd_rollout)

    p = sub.add_parser("loss-check", help="compute the clipped surrogate loss for an exported batch")
    p.add_argument("--self-check", action="store_true", help="use the batch's own logprobs (ratio 1), not --new-logprobs")
    p.add_argument("--clip-eps", type=float, help="ratio clip (default: rlengine.CLIP_EPS; inf disables clipping, printed as null)")
    p.set_defaults(func=cmd_loss_check)

    p = sub.add_parser("stream-infer", help="streaming inference over a corpus")
    p.add_argument("--chunks", type=int, default=2)
    p.set_defaults(func=cmd_stream_infer)

    p = sub.add_parser("build-transfer", help="construct transfer-benchmark corpora")
    p.add_argument("--mode", required=True, choices=["cross-domain", "multi-interest", "positive-only"])
    for flag, (mode, default) in MODE_KNOBS.items():
        p.add_argument(flag, type=type(default), help=f"read by --mode {mode} alone (default {default})")
    p.set_defaults(func=cmd_build_transfer)

    p = sub.add_parser("evaluate", help="selection-style evaluation of stored summaries")
    p.add_argument("--strict", action="store_true", help="accept only clean JSON selections")
    p.add_argument("--label", default="eval")
    p.set_defaults(func=cmd_evaluate)

    reads: dict[tuple[str, str], list[str]] = {}  # (command, flag) -> its help, then the modes that read it
    for key, (ins, outs) in STAGE_FILES.items():
        command, _, mode = key.partition(":")
        for spec in ins + outs:
            flag, _, name = spec.rstrip("?").partition("/")
            kind = f"{'optional ' * spec.endswith('?')}{'output' if spec in outs else 'input'} {'directory' if name else 'file'}"
            reads.setdefault((command, flag), [kind]).append(mode)
    for (command, flag), (kind, *modes) in reads.items():
        sub.choices[command].add_argument(flag, help=f"{kind} of --mode {', '.join(modes)}" if any(modes) else kind)
    return parser


# Each stage's file flags, by the command its manifest records (build-transfer's by
# mode): inputs, then outputs. It is their one declaration: build_parser adds each flag
# to its subcommand. A run needs every entry without a trailing "?"; "" is not given.
# "--dir/name" is a file the stage writes into the directory --dir names, and then
# the manifest is <dir>/manifest.json, else <first output>.manifest.json.
STAGE_FILES: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "simlab-gen": ((), ("--out-dir/histories.jsonl", "--out-dir/truth.jsonl", "--out-dir/scores.jsonl")),
    "synthesize-sft": (("--histories", "--scores", "--config"), ("--out",)),
    "prune": (("--scores", "--config?"), ("--out", "--keep-scores?")),
    "rollout": (("--histories", "--instances", "--config"), ("--out", "--trees?")),
    "loss-check": (("--batch", "--new-logprobs?"), ()),
    "stream-infer": (("--histories", "--generator"), ("--state-dir/states.jsonl", "--state-dir/summaries.jsonl")),
    "build-transfer:cross-domain": (("--histories-a", "--histories-b", "--embedder"), ("--out", "--out-histories?")),
    "build-transfer:multi-interest": (("--histories", "--donors"), ("--out", "--provenance?")),
    "build-transfer:positive-only": (("--histories",), ("--out",)),
    "evaluate": (("--summaries", "--instances", "--downstream"), ("--out", "--outcomes?")),
}

# build-transfer's knob flags: the one --mode that reads each, and its default there
MODE_KNOBS = {"--top-k": ("cross-domain", 1000), "--intensity": ("multi-interest", 0.3)}


def _given(args: argparse.Namespace, specs: tuple[str, ...]) -> list[tuple[str, str | None]]:
    """(flag, path) for each ``STAGE_FILES`` entry of ``specs``; the path is None where the flag was not given or was ""."""
    found = []
    for spec in specs:
        flag, _, name = spec.rstrip("?").partition("/")
        value = getattr(args, flag[2:].replace("-", "_")) or None
        found.append((flag, os.path.join(value, name) if value and name else value))
    return found


def _stage_files(parser: argparse.ArgumentParser, args: argparse.Namespace) -> tuple[str, list, list, str | None, str | None]:
    """The command, input paths, output paths (one per declared output, None where not given),
    manifest path and "--dir/name" outputs' directory (else None) of this run. Before any file is read,
    refuses as usage errors a file flag that the run needs and was not given, a flag that the mode does
    not read, and an output or manifest that names the same file as another flag; two inputs may."""
    mode = getattr(args, "mode", None)
    command = f"{args.command}:{mode}" if mode else args.command
    ins, outs = STAGE_FILES[command]
    inputs, outputs = _given(args, ins), _given(args, outs)
    missing = [flag for spec, (flag, path) in zip(ins + outs, inputs + outputs) if not path and not spec.endswith("?")]
    if missing:
        parser.error(f"{mode or args.command} needs {', '.join(dict.fromkeys(missing))}")
    if "self_check" in args and args.self_check == bool(args.new_logprobs):
        parser.error("loss-check needs exactly one of --new-logprobs, --self-check")
    modes = [i + o for key, (i, o) in STAGE_FILES.items() if key.startswith(f"{args.command}:")]
    unread = {flag for specs in modes for flag, path in _given(args, specs) if path} - {flag for flag, _ in inputs + outputs}
    unread |= {flag for flag, (reader, _) in MODE_KNOBS.items()
               if reader != mode and getattr(args, flag[2:].replace("-", "_"), None) is not None}
    if unread:
        parser.error(f"--mode {mode} does not read {', '.join(sorted(unread))}")
    inputs = [(flag, path) for flag, path in inputs if path]
    named, manifest, directory = inputs + [(flag, path) for flag, path in outputs if path], None, None
    if outputs:  # the first output flag is needed
        flag, path = outputs[0]
        directory = os.path.dirname(path) if "/" in outs[0] else None
        manifest = os.path.join(directory, "manifest.json") if directory else f"{path}.manifest.json"
        named.append((f"the manifest of {flag}", manifest))
    for i in range(len(inputs), len(named)):  # each output and manifest against every flag before it
        flag, path = named[i]
        for other, other_path in named[:i]:
            if os.path.realpath(other_path) == os.path.realpath(path):
                parser.error(f"arguments {other} and {flag} name the same file: {path}")
    return command, [path for _, path in inputs], [path for _, path in outputs], manifest, directory


@contextlib.contextmanager
def _open_outputs(paths: list[str | None], directory: str | None) -> Iterator[list]:
    """Yield a writer of records to ``<path>.tmp`` for each of ``paths`` (None for None), having made
    ``directory`` if missing. Once the block returns, every tmp file is renamed over its path; if it
    raises, every tmp file and every directory made here is removed, so no previous output changes."""
    made = []  # the directories that os.makedirs will make, deepest first
    while directory and not os.path.isdir(directory):
        made.append(directory)
        directory = os.path.dirname(directory)
    try:
        with contextlib.ExitStack() as stack:
            if made:
                os.makedirs(made[0])
            yield [path and functools.partial(write_record, stack.enter_context(atomic_open(path)), path) for path in paths]
    except BaseException:
        for made_dir in made:
            with contextlib.suppress(OSError):  # not made, or holding an output renamed before the failure
                os.rmdir(made_dir)
        raise


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error(f"argument --jobs: must be >= 1, got {args.jobs}")
    command, inputs, outputs, manifest, directory = _stage_files(parser, args)
    logging.basicConfig(level=args.log_level.upper(), format="%(asctime)s %(name)s %(levelname)s %(message)s")
    started_at = _now()
    skipped, clients = Tally(), Clients()
    try:
        with _open_outputs(outputs, directory) as args.outputs:
            stage = args.func(args, skipped, clients)
        if stage is not None:
            mw = ManifestWriter(command, args.seed, stage.config, started_at)
            for path in inputs:
                mw.add_input(path)
            for path in filter(None, outputs):
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
            mw.write(manifest)
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
