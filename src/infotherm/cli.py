"""Command-line interface.

Usage:
    infotherm gas entropy --length 1000 --excited 300
    infotherm gas temperature --length 1000 --excited 100
    infotherm gas transfer --length 1000 --n-hot 300 --n-cold 100
    infotherm gas metropolis --length 10000 --kt 1.0 --steps 1000000 --burn-in 100000 --seed 42
    infotherm file data.bin --markov-order 3
    infotherm generate --kind bernoulli --p 0.5 --length 65536 --seed 7 --out data.bin
    infotherm broadcast --file data.bin --receivers 3
    infotherm fiber simulate --epsilon0 1 --alpha 0.2 --span-km 3.4657 --spans 10 --file-length 100 --csv chain.csv
    infotherm landauer --power 1e-9 --noise-temp 300
    infotherm ledger check --entropy 5 --info 10

Every command accepts ``--json`` for a single structured report on stdout
and ``--config PATH`` pointing at a plain key=value file whose keys are
long option names (explicit flags win). Output is deterministic: the same
argv (seeds included) yields byte-identical text, JSON, and CSV.

Exit codes: 0 success, 1 a thermodynamic verdict came back violated,
2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field

from . import bitstream, fiber, landauer, ledger, twolevel
from .core import REDUCED, SI, PhysConstants
from .twolevel import VIOLATED

SCHEMA_VERSION = 1


@dataclass
class Report:
    """One CLI invocation's structured output."""

    command: str
    inputs: dict = field(default_factory=dict)
    results: dict = field(default_factory=dict)
    verdicts: dict = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    def add(self, name: str, value, unit: str) -> None:
        self.results[name] = {"value": value, "unit": unit}

    def to_json(self) -> str:
        doc = {
            "schema_version": self.schema_version,
            "command": self.command,
            "inputs": self.inputs,
            "results": self.results,
            "verdicts": self.verdicts,
        }
        return json.dumps(_json_safe(doc), indent=2, sort_keys=True, allow_nan=False) + "\n"

    def to_text(self) -> str:
        lines = [f"command: {self.command}"]
        for key, value in self.inputs.items():
            lines.append(f"input   {key} = {_fmt(value)}")
        for key, entry in self.results.items():
            lines.append(f"result  {key} = {_fmt(entry['value'])} {entry['unit']}")
        for key, value in self.verdicts.items():
            lines.append(f"verdict {key} = {value}")
        return "\n".join(lines) + "\n"

    def exit_status(self) -> int:
        return 1 if VIOLATED in self.verdicts.values() else 0


_INF = float("inf")


def _json_safe(value):
    """JSON has no NaN or infinity: write an undefined number as null."""
    if isinstance(value, dict):
        return {key: _json_safe(item) for key, item in value.items()}
    if isinstance(value, float) and not -_INF < value < _INF:
        return None
    return value


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _temp_unit(consts: PhysConstants) -> str:
    return "K" if consts.mode == "si" else "epsilon/k"


def _energy_unit(consts: PhysConstants) -> str:
    return "J" if consts.mode == "si" else "epsilon"


def _resolve_epsilon(args, name: str = "epsilon") -> tuple[float, PhysConstants]:
    """Pick the bit/level energy and constants for the chosen unit mode."""
    if args.units == "si":
        value = getattr(args, f"{name}_joules")
        if value is None:
            raise ValueError(f"--units si requires --{name.replace('_', '-')}-joules")
        return value, SI
    return getattr(args, name), REDUCED


def export_csv(records, path) -> None:
    """Write one CSV row per span, 12 significant digits per number."""
    if not records:
        raise ValueError("no spans to export")
    lines = ["span,epsilon_in,epsilon_out,t_hot,t_cold,q_hot,q_cold,work,info_nats"]
    for rec in records:
        att = rec.steps[1]
        cells = [str(rec.span_index)] + [
            format(x, ".12g")
            for x in (
                att.epsilon_start,
                att.epsilon_end,
                float(rec.t_hot),
                float(rec.t_cold),
                float(rec.q_hot),
                float(rec.q_cold),
                float(rec.work_in),
                float(rec.info),
            )
        ]
        lines.append(",".join(cells))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


# --- handlers -------------------------------------------------------------

def _cmd_gas_entropy(args) -> Report:
    gas = twolevel.TwoLevelGas(length=args.length, excited=args.excited)
    report = Report("gas entropy", inputs={"length": args.length, "excited": args.excited})
    report.add("log_multiplicity", twolevel.log_multiplicity(args.length, args.excited), "1")
    report.add("entropy_exact", float(twolevel.entropy_exact(gas)), "k")
    if 0 < args.excited < args.length:
        report.add("entropy_stirling", float(twolevel.entropy_stirling(gas)), "k")
    return report


def _cmd_gas_temperature(args) -> Report:
    epsilon, consts = _resolve_epsilon(args)
    gas = twolevel.TwoLevelGas(length=args.length, excited=args.excited, epsilon=epsilon)
    report = Report(
        "gas temperature",
        inputs={"length": args.length, "excited": args.excited,
                "epsilon": epsilon, "units": consts.mode},
    )
    unit = _temp_unit(consts)
    report.add("temperature_closed", float(twolevel.temperature_closed(gas, consts)), unit)
    if gas.length >= 4 and 1 <= gas.excited <= gas.length - 1:
        report.add("temperature_numeric", float(twolevel.temperature_numeric(gas, consts)), unit)
    return report


def _cmd_gas_occupation(args) -> Report:
    epsilon, consts = _resolve_epsilon(args)
    expected = twolevel.occupation_from_temperature(args.length, epsilon, args.temperature, consts)
    report = Report(
        "gas occupation",
        inputs={"length": args.length, "epsilon": epsilon,
                "temperature": args.temperature, "units": consts.mode},
    )
    report.add("expected_n", expected, "1")
    report.add("expected_fraction", expected / args.length, "1")
    return report


def _cmd_gas_transfer(args) -> Report:
    epsilon, consts = _resolve_epsilon(args)
    record = twolevel.transfer_balance(args.length, args.n_hot, args.n_cold, epsilon)
    report = Report(
        "gas transfer",
        inputs={"length": args.length, "n_hot": args.n_hot, "n_cold": args.n_cold,
                "epsilon": epsilon, "units": consts.mode},
    )
    report.add("gas_heat", float(record.gas_heat), _energy_unit(consts))
    report.add("entropy_removed_hot", float(record.entropy_removed_hot), "k")
    report.add("entropy_added_cold", float(record.entropy_added_cold), "k")
    report.add("net", float(record.net), "k")
    report.add("clausius_lower_bound", float(record.clausius_lower_bound), "k")
    report.verdicts["clausius"] = record.verdict
    return report


def _cmd_gas_metropolis(args) -> Report:
    cfg = twolevel.McConfig(steps=args.steps, burn_in=args.burn_in, seed=args.seed, kT=args.kt)
    result = twolevel.metropolis_sample(args.length, args.epsilon, cfg)
    report = Report(
        "gas metropolis",
        inputs={"length": args.length, "epsilon": args.epsilon, "kt": args.kt,
                "steps": args.steps, "burn_in": args.burn_in, "seed": args.seed},
    )
    report.add("mean_n", result.mean_n, "1")
    report.add("std_error", result.std_error, "1")
    report.add("mean_fraction", result.mean_fraction(args.length), "1")
    report.add("acceptance_rate", result.acceptance_rate, "1")
    report.add("samples", result.samples, "1")
    report.add("analytic_mean_n",
               twolevel.occupation_from_temperature(args.length, args.epsilon, args.kt, REDUCED),
               "1")
    return report


def _cmd_file(args) -> Report:
    stream = bitstream.read_bitstream(args.path, bit_order=args.bit_order)
    stats = bitstream.analyze(stream, markov_order=args.markov_order)
    epsilon, consts = _resolve_epsilon(args)
    report = Report(
        "file",
        inputs={"path": str(args.path), "bit_order": args.bit_order,
                "markov_order": args.markov_order, "epsilon": epsilon, "units": consts.mode},
    )
    report.add("length", stats.length, "bit")
    report.add("ones", stats.ones, "bit")
    report.add("p_hat", stats.p_hat, "1")
    report.add("info_iid", float(stats.info_iid), "nat")
    report.add("info_iid_bits", stats.info_iid.bits, "bit")
    if stats.info_rate_markov is not None:
        report.add("info_rate_markov", stats.info_rate_markov, "nat/bit")
    report.add("correlation_lag1", stats.correlation_lag1, "1")
    report.verdicts["equilibrium"] = stats.equilibrium
    if stats.equilibrium == bitstream.RANDOM:
        report.add("file_temperature", float(bitstream.file_temperature(epsilon, consts)), _temp_unit(consts))
        report.add("average_nat_energy", bitstream.average_nat_energy(epsilon), _energy_unit(consts))
        heat, entropy = bitstream.file_heat_and_entropy(stats.length, epsilon)
        report.add("heat", float(heat), _energy_unit(consts))
        report.add("entropy", float(entropy), "k")
    return report


def _cmd_generate(args) -> Report:
    spec = bitstream.GeneratorSpec(kind=args.kind, length=args.length, seed=args.seed,
                                   p=args.p, q=args.q)
    stream = bitstream.generate(spec)
    bitstream.write_bitstream(stream, args.out, bit_order=args.bit_order)
    report = Report(
        "generate",
        inputs={"kind": args.kind, "length": args.length, "seed": args.seed,
                "p": args.p, "q": args.q, "out": str(args.out), "bit_order": args.bit_order},
    )
    report.add("length", stream.length, "bit")
    report.add("ones", stream.ones, "bit")
    report.add("bytes_written", stream.length // 8, "byte")
    return report


def _cmd_broadcast(args) -> Report:
    stream = bitstream.read_bitstream(args.file, bit_order=args.bit_order)
    stats = bitstream.analyze(stream, markov_order=args.markov_order)
    epsilon, consts = _resolve_epsilon(args)
    result = ledger.broadcast_balance(stats, epsilon, args.receivers, consts)
    report = Report(
        "broadcast",
        inputs={"file": str(args.file), "receivers": args.receivers,
                "markov_order": args.markov_order, "epsilon": epsilon, "units": consts.mode},
    )
    report.add("length", stats.length, "bit")
    report.add("t_hot", float(result.t_hot), _temp_unit(consts))
    report.add("t_cold", float(result.t_cold), _temp_unit(consts))
    report.add("info_sent", float(result.info_sent), "nat")
    report.add("entropy_removed", float(result.entropy_removed), "k")
    report.add("entropy_deposited", float(result.entropy_deposited), "k")
    report.add("net_gain", float(result.net_gain), "k")
    report.add("clausius_margin", float(result.clausius_margin), "k")
    check = ledger.clausius_check(result.entropy_deposited, float(result.info_sent) * args.receivers)
    report.verdicts["equilibrium"] = stats.equilibrium
    report.verdicts["clausius"] = check.verdict
    return report


def _cmd_ledger_check(args) -> Report:
    check = ledger.clausius_check(args.entropy, args.info)
    report = Report("ledger check", inputs={"entropy": args.entropy, "info": args.info})
    report.add("margin", check.margin_k, "k")
    report.verdicts["clausius"] = check.verdict
    return report


def _cmd_ledger_combined(args) -> Report:
    consts = SI if args.units == "si" else REDUCED
    result = ledger.combined_balance(args.heat, args.temperature, args.info,
                                     args.entropy_actual, consts)
    report = Report(
        "ledger combined",
        inputs={"heat": args.heat, "temperature": args.temperature, "info": args.info,
                "entropy_actual": args.entropy_actual, "units": consts.mode},
    )
    report.add("entropy_lower_bound", float(result.entropy_lower_bound), "k")
    report.add("entropy_actual", float(result.entropy_actual), "k")
    report.verdicts["clausius"] = result.verdict
    return report


def _cmd_fiber_simulate(args) -> Report:
    epsilon0, consts = _resolve_epsilon(args, "epsilon0")
    cfg = fiber.FiberChainConfig(epsilon0=epsilon0, alpha_per_km=args.alpha,
                                 span_km=args.span_km, n_spans=args.spans,
                                 file_length=args.file_length)
    chain = fiber.simulate_chain(cfg, consts)
    report = Report(
        "fiber simulate",
        inputs={"epsilon0": epsilon0, "alpha": args.alpha, "span_km": args.span_km,
                "spans": args.spans, "file_length": args.file_length, "units": consts.mode},
    )
    report.add("attenuation_g", cfg.attenuation, "1")
    report.add("span_efficiency", chain.span_efficiency, "1")
    report.add("info", float(chain.info), "nat")
    report.add("total_work", float(chain.total_work), _energy_unit(consts))
    report.add("total_heat_hot", float(chain.total_heat_hot), _energy_unit(consts))
    report.add("total_heat_cold", float(chain.total_heat_cold), _energy_unit(consts))
    if chain.records:
        first = chain.records[0]
        report.add("t_hot", float(first.t_hot), _temp_unit(consts))
        report.add("t_cold", float(first.t_cold), _temp_unit(consts))
        report.add("q_hot_per_span", float(first.q_hot), _energy_unit(consts))
        report.add("q_cold_per_span", float(first.q_cold), _energy_unit(consts))
        report.add("work_per_span", float(first.work_in), _energy_unit(consts))
        audit = fiber.amplifier_entropy_balance(first.q_cold, first.t_hot, first.t_cold,
                                                first.work_in, consts)
        report.verdicts["second_law"] = audit.verdict
    if args.csv is not None:
        export_csv(chain.records, args.csv)
        report.inputs["csv"] = str(args.csv)
    return report


def _cmd_fiber_efficiency(args) -> Report:
    eta = fiber.carnot_efficiency(args.t_hot, args.t_cold)
    report = Report("fiber efficiency", inputs={"t_hot": args.t_hot, "t_cold": args.t_cold})
    report.add("efficiency", eta, "1")
    return report


def _cmd_fiber_amplifier(args) -> Report:
    consts = SI if args.units == "si" else REDUCED
    q_hot, work = fiber.amplifier_work(args.q_cold, args.t_hot, args.t_cold)
    report = Report(
        "fiber amplifier",
        inputs={"q_cold": args.q_cold, "t_hot": args.t_hot, "t_cold": args.t_cold,
                "units": consts.mode},
    )
    report.add("q_hot", float(q_hot), _energy_unit(consts))
    report.add("work_required", float(work), _energy_unit(consts))
    report.add("efficiency", fiber.carnot_efficiency(args.t_hot, args.t_cold), "1")
    applied = float(work) if args.work is None else args.work
    audit = fiber.amplifier_entropy_balance(args.q_cold, args.t_hot, args.t_cold, applied, consts)
    report.inputs["work"] = applied
    report.add("entropy_balance", audit.entropy_balance_k, "k")
    report.verdicts["second_law"] = audit.verdict
    return report


def _cmd_landauer(args) -> Report:
    if args.noise_temp is None and args.bit_rate is None:
        raise ValueError("landauer needs --noise-temp and/or --bit-rate")
    report = Report(
        "landauer",
        inputs={"power": args.power, "noise_temp": args.noise_temp,
                "margin": args.margin, "bit_rate": args.bit_rate},
    )
    if args.bit_rate is not None:
        report.add("device_temperature", float(landauer.device_temperature(args.power, args.bit_rate)), "K")
        report.add("energy_per_bit", landauer.energy_per_bit(args.power, args.bit_rate), "J")
    if args.noise_temp is not None:
        f_max = landauer.max_bit_rate(args.power, args.noise_temp, args.margin)
        report.add("f_max", f_max, "1/s")
        report.add("device_temperature_at_f_max", float(landauer.device_temperature(args.power, f_max)), "K")
        report.add("energy_per_bit_at_f_max", landauer.energy_per_bit(args.power, f_max), "J")
    return report


# --- parser ---------------------------------------------------------------

def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--json", action="store_true", help="emit the report as one JSON document")
    parser.add_argument("--config", default=None, help="key=value file of defaults; flags win")


def _add_units(parser: argparse.ArgumentParser, name: str = "epsilon", default: float = 1.0) -> None:
    flag = name.replace("_", "-")
    parser.add_argument("--units", choices=("reduced", "si"), default="reduced")
    parser.add_argument(f"--{flag}", type=float, default=default,
                        help=f"{flag} in reduced units (default {default})")
    parser.add_argument(f"--{flag}-joules", type=float, default=None,
                        help=f"{flag} in joules, required with --units si")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="infotherm",
                                     description="thermodynamics of two-level gases and binary files")
    sub = parser.add_subparsers(dest="command", required=True)

    gas = sub.add_parser("gas", help="two-level gas computations")
    gas_sub = gas.add_subparsers(dest="subcommand", required=True)

    p = gas_sub.add_parser("entropy", help="multiplicity and entropy")
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--excited", type=int, required=True)
    _add_common(p)
    p.set_defaults(handler=_cmd_gas_entropy)

    p = gas_sub.add_parser("temperature", help="closed-form and finite-difference temperature")
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--excited", type=int, required=True)
    _add_units(p)
    _add_common(p)
    p.set_defaults(handler=_cmd_gas_temperature)

    p = gas_sub.add_parser("occupation", help="expected occupation at a temperature")
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--temperature", type=float, required=True)
    _add_units(p)
    _add_common(p)
    p.set_defaults(handler=_cmd_gas_occupation)

    p = gas_sub.add_parser("transfer", help="hot-to-cold transfer entropy balance")
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--n-hot", type=int, required=True)
    p.add_argument("--n-cold", type=int, required=True)
    _add_units(p)
    _add_common(p)
    p.set_defaults(handler=_cmd_gas_transfer)

    p = gas_sub.add_parser("metropolis", help="Monte Carlo occupation sampler")
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--epsilon", type=float, default=1.0)
    p.add_argument("--kt", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--burn-in", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    _add_common(p)
    p.set_defaults(handler=_cmd_gas_metropolis)

    p = sub.add_parser("file", help="analyze a binary file")
    p.add_argument("path")
    p.add_argument("--markov-order", type=int, default=3)
    p.add_argument("--bit-order", choices=bitstream.BIT_ORDERS, default="msb_first")
    _add_units(p)
    _add_common(p)
    p.set_defaults(handler=_cmd_file)

    p = sub.add_parser("generate", help="write a synthetic corpus")
    p.add_argument("--kind", choices=bitstream.GENERATOR_KINDS, required=True)
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--p", type=float, default=None, help="ones probability (bernoulli)")
    p.add_argument("--q", type=float, default=None, help="flip probability (markov)")
    p.add_argument("--out", required=True)
    p.add_argument("--bit-order", choices=bitstream.BIT_ORDERS, default="msb_first")
    _add_common(p)
    p.set_defaults(handler=_cmd_generate)

    p = sub.add_parser("broadcast", help="one-to-N broadcast Clausius audit")
    p.add_argument("--file", required=True)
    p.add_argument("--receivers", type=int, required=True)
    p.add_argument("--markov-order", type=int, default=3)
    p.add_argument("--bit-order", choices=bitstream.BIT_ORDERS, default="msb_first")
    _add_units(p)
    _add_common(p)
    p.set_defaults(handler=_cmd_broadcast)

    led = sub.add_parser("ledger", help="Clausius inequality audits")
    led_sub = led.add_subparsers(dest="subcommand", required=True)

    p = led_sub.add_parser("check", help="informatic Clausius check dS >= k dI")
    p.add_argument("--entropy", type=float, required=True, help="entropy change in k units")
    p.add_argument("--info", type=float, required=True, help="information change in nats")
    _add_common(p)
    p.set_defaults(handler=_cmd_ledger_check)

    p = led_sub.add_parser("combined", help="combined thermal+informatic audit")
    p.add_argument("--heat", type=float, required=True)
    p.add_argument("--temperature", type=float, required=True)
    p.add_argument("--info", type=float, required=True)
    p.add_argument("--entropy-actual", type=float, required=True)
    p.add_argument("--units", choices=("reduced", "si"), default="reduced")
    _add_common(p)
    p.set_defaults(handler=_cmd_ledger_combined)

    fib = sub.add_parser("fiber", help="amplifier Carnot cycle")
    fib_sub = fib.add_subparsers(dest="subcommand", required=True)

    p = fib_sub.add_parser("simulate", help="multi-span chain simulation")
    p.add_argument("--alpha", type=float, required=True, help="attenuation per km")
    p.add_argument("--span-km", type=float, required=True)
    p.add_argument("--spans", type=int, required=True)
    p.add_argument("--file-length", type=int, required=True)
    p.add_argument("--csv", default=None, help="write per-span CSV to this path")
    _add_units(p, "epsilon0")
    _add_common(p)
    p.set_defaults(handler=_cmd_fiber_simulate)

    p = fib_sub.add_parser("efficiency", help="Carnot efficiency of two baths")
    p.add_argument("--t-hot", type=float, required=True)
    p.add_argument("--t-cold", type=float, required=True)
    _add_common(p)
    p.set_defaults(handler=_cmd_fiber_efficiency)

    p = fib_sub.add_parser("amplifier", help="entropy-conserving amplifier work")
    p.add_argument("--q-cold", type=float, required=True)
    p.add_argument("--t-hot", type=float, required=True)
    p.add_argument("--t-cold", type=float, required=True)
    p.add_argument("--work", type=float, default=None,
                   help="audit this work input instead of the ideal one")
    p.add_argument("--units", choices=("reduced", "si"), default="reduced")
    _add_common(p)
    p.set_defaults(handler=_cmd_fiber_amplifier)

    p = sub.add_parser("landauer", help="computing-power bound (SI units)")
    p.add_argument("--power", type=float, required=True, help="watts")
    p.add_argument("--noise-temp", type=float, default=None, help="kelvin")
    p.add_argument("--margin", type=float, default=landauer.DEFAULT_MARGIN)
    p.add_argument("--bit-rate", type=float, default=None, help="1/s")
    _add_common(p)
    p.set_defaults(handler=_cmd_landauer)

    return parser


def _inject_config(argv: list[str]) -> list[str]:
    """Append config-file pairs as flags so argparse applies its own types
    and required checks; flags already on the command line win."""
    path = None
    for i, token in enumerate(argv):
        if token == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
        elif token.startswith("--config="):
            path = token.split("=", 1)[1]
    if path is None:
        return argv
    explicit = {token[2:].split("=", 1)[0] for token in argv if token.startswith("--")}
    extra: list[str] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in explicit:
                extra.extend([f"--{key}", value])
    return argv + extra


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        full_argv = _inject_config(list(argv))
        args = parser.parse_args(full_argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ValueError, OSError) as exc:
        print(f"infotherm: error: {exc}", file=sys.stderr)
        return 2
    try:
        report = args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"infotherm: error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(report.to_json() if args.json else report.to_text())
    return report.exit_status()


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
