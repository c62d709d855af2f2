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
long option names (explicit flags win; ``json=true`` or ``json=false``
sets the switch). Every float flag must be finite: NaN and infinities
are input errors. Output is deterministic: the same argv (seeds
included) yields byte-identical text, JSON, and CSV.

Exit codes: 0 success, 1 a thermodynamic verdict came back violated,
2 usage or input error.
"""

from __future__ import annotations

import argparse
import math
import sys

SCHEMA_VERSION = 1


class Report:
    """One CLI invocation's structured output; quantity results are
    reported in the unit mode ``consts``, a ``core.PhysConstants``."""

    def __init__(self, command: str, consts, inputs: dict) -> None:
        self.command = command
        self.consts = consts
        self.inputs = inputs
        self.results: dict = {}
        self.verdicts: dict = {}

    def add(self, name: str, value, unit: str | None = None) -> None:
        """Record a result. A quantity carries its own unit; a plain number
        is dimensionless unless ``unit`` names one."""
        self.results[name] = {"value": value, "unit": unit or _unit(value, self.consts)}

    def to_json(self) -> str:
        import json

        doc = {
            "schema_version": SCHEMA_VERSION,
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
        from .core import VIOLATED

        return 1 if VIOLATED in self.verdicts.values() else 0


def _json_safe(value):
    """JSON has no NaN or infinity: write an undefined number as null."""
    if isinstance(value, dict):
        return {key: _json_safe(item) for key, item in value.items()}
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _unit(value, consts) -> str:
    """The unit of a result: the one place that maps a quantity type to
    its unit under a unit mode. A quantity is reported as the float it is."""
    from .core import Energy, Entropy, Information, Temperature

    si = consts.mode == "si"
    return {Temperature: "K" if si else "epsilon/k", Energy: "J" if si else "epsilon",
            Entropy: "k", Information: "nat"}.get(type(value), "1")


def __getattr__(name: str):
    # The CSV writer lives in ``fiber``, which only ``fiber`` commands load.
    if name == "export_csv":
        from .fiber import export_csv

        return export_csv
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# --- options --------------------------------------------------------------

def _finite(text: str) -> float:
    """The type of every float flag: NaN and infinities are input errors."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


#: The store_true flags; a config file sets them with ``true`` or ``false``.
_SWITCHES = ("json",)


def _add_energy(parser: argparse.ArgumentParser, name: str = "epsilon") -> None:
    parser.add_argument(f"--{name}", type=_finite, default=1.0,
                        help=f"{name} in reduced units (default 1.0)")
    parser.add_argument(f"--{name}-joules", type=_finite, default=None,
                        help=f"{name} in joules, required with --units si")


def _add_units(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--units", choices=("reduced", "si"), default="reduced")


# --- commands -------------------------------------------------------------
#
# Each command is a function that declares its own options, in the order
# its report lists them, and a handler. ``run`` builds each report from
# the parse: command words, unit mode and inputs. A handler only computes
# and adds results and verdicts. Each imports the modules it uses when it
# runs, so a command loads only its own: the bit statistics of ``file``,
# ``broadcast`` and the ledgers come from the numpy-free ``filescan``, and
# ``generate`` and the scans it hands on import ``bitstream`` and numpy.

def _gas_entropy_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--excited", type=int, required=True)


def _cmd_gas_entropy(args, report: Report) -> None:
    from . import twolevel

    gas = twolevel.TwoLevelGas(length=args.length, excited=args.excited)
    report.add("log_multiplicity", twolevel.log_multiplicity(args.length, args.excited))
    report.add("entropy_exact", twolevel.entropy_exact(gas))
    if 0 < args.excited < args.length:
        report.add("entropy_stirling", twolevel.entropy_stirling(gas))


def _gas_temperature_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--excited", type=int, required=True)
    _add_energy(p)
    _add_units(p)


def _cmd_gas_temperature(args, report: Report) -> None:
    from . import twolevel

    gas = twolevel.TwoLevelGas(length=args.length, excited=args.excited, epsilon=args.epsilon)
    report.add("temperature_closed", twolevel.temperature_closed(gas, report.consts))
    if gas.length >= 4 and 1 <= gas.excited <= gas.length - 1:
        report.add("temperature_numeric", twolevel.temperature_numeric(gas, report.consts))


def _gas_occupation_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--length", type=int, required=True)
    _add_energy(p)
    p.add_argument("--temperature", type=_finite, required=True)
    _add_units(p)


def _cmd_gas_occupation(args, report: Report) -> None:
    from . import twolevel

    expected = twolevel.occupation_from_temperature(args.length, args.epsilon, args.temperature,
                                                    report.consts)
    report.add("expected_n", expected)
    report.add("expected_fraction", expected / args.length)


def _gas_transfer_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--n-hot", type=int, required=True)
    p.add_argument("--n-cold", type=int, required=True)
    _add_energy(p)
    _add_units(p)


def _cmd_gas_transfer(args, report: Report) -> None:
    from . import twolevel

    record = twolevel.transfer_balance(args.length, args.n_hot, args.n_cold, args.epsilon)
    report.add("gas_heat", record.gas_heat)
    report.add("entropy_removed_hot", record.entropy_removed_hot)
    report.add("entropy_added_cold", record.entropy_added_cold)
    report.add("net", record.net)
    report.add("clausius_lower_bound", record.clausius_lower_bound)
    report.verdicts["clausius"] = record.verdict


def _gas_metropolis_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--epsilon", type=_finite, default=1.0)
    p.add_argument("--kt", type=_finite, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--burn-in", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)


def _cmd_gas_metropolis(args, report: Report) -> None:
    from . import twolevel

    cfg = twolevel.McConfig(steps=args.steps, burn_in=args.burn_in, seed=args.seed, kT=args.kt)
    result = twolevel.metropolis_sample(args.length, args.epsilon, cfg)
    report.add("mean_n", result.mean_n)
    report.add("std_error", result.std_error)
    report.add("mean_fraction", result.mean_fraction(args.length))
    report.add("acceptance_rate", result.acceptance_rate)
    report.add("samples", result.samples)
    report.add("analytic_mean_n",
               twolevel.occupation_from_temperature(args.length, args.epsilon, args.kt))


def _file_options(p: argparse.ArgumentParser) -> None:
    from .filescan import BIT_ORDERS

    p.add_argument("path")
    p.add_argument("--bit-order", choices=BIT_ORDERS, default="msb_first")
    p.add_argument("--markov-order", type=int, default=3)
    _add_energy(p)
    _add_units(p)


def _cmd_file(args, report: Report) -> None:
    from . import filescan

    stats = filescan.analyze_file(args.path, markov_order=args.markov_order, bit_order=args.bit_order)
    report.add("length", stats.length, "bit")
    report.add("ones", stats.ones, "bit")
    report.add("p_hat", stats.p_hat)
    report.add("info_iid", stats.info_iid)
    report.add("info_iid_bits", stats.info_iid.bits, "bit")
    if stats.info_rate_markov is not None:
        report.add("info_rate_markov", stats.info_rate_markov, "nat/bit")
    report.add("correlation_lag1", stats.correlation_lag1)
    report.verdicts["equilibrium"] = stats.equilibrium
    if stats.equilibrium == filescan.RANDOM:
        report.add("file_temperature", filescan.file_temperature(args.epsilon, report.consts))
        report.add("average_nat_energy", filescan.average_nat_energy(args.epsilon))
        heat, entropy = filescan.file_heat_and_entropy(stats.length, args.epsilon)
        report.add("heat", heat)
        report.add("entropy", entropy)


def _generate_options(p: argparse.ArgumentParser) -> None:
    from .filescan import BIT_ORDERS, GENERATOR_KINDS

    p.add_argument("--kind", choices=GENERATOR_KINDS, required=True)
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--p", type=_finite, default=None, help="ones probability (bernoulli)")
    p.add_argument("--q", type=_finite, default=None, help="flip probability (markov)")
    p.add_argument("--out", required=True)
    p.add_argument("--bit-order", choices=BIT_ORDERS, default="msb_first")


def _cmd_generate(args, report: Report) -> None:
    if args.length % 8:
        raise ValueError("stream length must be a multiple of 8 to write raw bytes")
    from . import bitstream

    spec = bitstream.GeneratorSpec(kind=args.kind, length=args.length, seed=args.seed,
                                   p=args.p, q=args.q)
    ones = bitstream.write_generated(spec, args.out, bit_order=args.bit_order)
    report.add("length", args.length, "bit")
    report.add("ones", ones, "bit")
    report.add("bytes_written", args.length // 8, "byte")


def _broadcast_options(p: argparse.ArgumentParser) -> None:
    from .filescan import BIT_ORDERS

    p.add_argument("--file", required=True)
    p.add_argument("--receivers", type=int, required=True)
    p.add_argument("--markov-order", type=int, default=3)
    p.add_argument("--bit-order", choices=BIT_ORDERS, default="msb_first")
    _add_energy(p)
    _add_units(p)


def _cmd_broadcast(args, report: Report) -> None:
    from . import filescan, ledger

    del report.inputs["bit_order"]
    stats = filescan.analyze_file(args.file, markov_order=args.markov_order, bit_order=args.bit_order)
    result = ledger.broadcast_balance(stats, args.epsilon, args.receivers, report.consts)
    report.add("length", stats.length, "bit")
    report.add("t_hot", result.t_hot)
    report.add("t_cold", result.t_cold)
    report.add("info_sent", result.info_sent)
    report.add("entropy_removed", result.entropy_removed)
    report.add("entropy_deposited", result.entropy_deposited)
    report.add("net_gain", result.net_gain)
    report.add("clausius_margin", result.clausius_margin)
    report.verdicts["equilibrium"] = stats.equilibrium
    report.verdicts["clausius"] = result.verdict


def _ledger_check_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--entropy", type=_finite, required=True, help="entropy change in k units")
    p.add_argument("--info", type=_finite, required=True, help="information change in nats")


def _cmd_ledger_check(args, report: Report) -> None:
    from . import ledger

    check = ledger.clausius_check(args.entropy, args.info)
    report.add("margin", check.margin_k)
    report.verdicts["clausius"] = check.verdict


def _ledger_combined_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--heat", type=_finite, required=True)
    p.add_argument("--temperature", type=_finite, required=True)
    p.add_argument("--info", type=_finite, required=True)
    p.add_argument("--entropy-actual", type=_finite, required=True)
    _add_units(p)


def _cmd_ledger_combined(args, report: Report) -> None:
    from . import ledger

    result = ledger.combined_balance(args.heat, args.temperature, args.info,
                                     args.entropy_actual, report.consts)
    report.add("entropy_lower_bound", result.entropy_lower_bound)
    report.add("entropy_actual", result.entropy_actual)
    report.verdicts["clausius"] = result.verdict


def _fiber_simulate_options(p: argparse.ArgumentParser) -> None:
    _add_energy(p, "epsilon0")
    p.add_argument("--alpha", type=_finite, required=True, help="attenuation per km")
    p.add_argument("--span-km", type=_finite, required=True)
    p.add_argument("--spans", type=int, required=True)
    p.add_argument("--file-length", type=int, required=True)
    _add_units(p)
    p.add_argument("--csv", default=argparse.SUPPRESS, help="write per-span CSV to this path")


def _cmd_fiber_simulate(args, report: Report) -> None:
    if args.spans > sys.maxsize:
        raise ValueError(f"--spans {args.spans} is beyond the index range (at most {sys.maxsize})")
    from . import fiber

    cfg = fiber.FiberChainConfig(epsilon0=args.epsilon0, alpha_per_km=args.alpha,
                                 span_km=args.span_km, n_spans=args.spans,
                                 file_length=args.file_length)
    chain = fiber.simulate_chain(cfg, report.consts)
    report.add("attenuation_g", cfg.attenuation)
    report.add("span_efficiency", chain.span_efficiency)
    report.add("info", chain.info)
    report.add("total_work", chain.total_work)
    report.add("total_heat_hot", chain.total_heat_hot)
    report.add("total_heat_cold", chain.total_heat_cold)
    cycle = chain.cycle
    if cycle is not None:
        report.add("t_hot", cycle.t_hot)
        report.add("t_cold", cycle.t_cold)
        report.add("q_hot_per_span", cycle.q_hot)
        report.add("q_cold_per_span", cycle.q_cold)
        report.add("work_per_span", cycle.work_in)
        audit = fiber.amplifier_entropy_balance(cycle.q_cold, cycle.t_hot, cycle.t_cold,
                                                cycle.work_in, report.consts)
        report.verdicts["second_law"] = audit.verdict
    if "csv" in args:
        import itertools

        fiber.export_csv(itertools.repeat(cycle, chain.n_spans), args.csv)


def _fiber_efficiency_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--t-hot", type=_finite, required=True)
    p.add_argument("--t-cold", type=_finite, required=True)


def _cmd_fiber_efficiency(args, report: Report) -> None:
    from . import fiber

    report.add("efficiency", fiber.carnot_efficiency(args.t_hot, args.t_cold))


def _fiber_amplifier_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--q-cold", type=_finite, required=True)
    p.add_argument("--t-hot", type=_finite, required=True)
    p.add_argument("--t-cold", type=_finite, required=True)
    _add_units(p)
    p.add_argument("--work", type=_finite, default=None,
                   help="audit this work input instead of the ideal one")


def _cmd_fiber_amplifier(args, report: Report) -> None:
    from . import fiber

    q_hot, work = fiber.amplifier_work(args.q_cold, args.t_hot, args.t_cold)
    report.add("q_hot", q_hot)
    report.add("work_required", work)
    report.add("efficiency", fiber.carnot_efficiency(args.t_hot, args.t_cold))
    applied = work if args.work is None else args.work
    audit = fiber.amplifier_entropy_balance(args.q_cold, args.t_hot, args.t_cold, applied,
                                            report.consts)
    report.inputs["work"] = applied
    report.add("entropy_balance", audit.entropy_balance_k)
    report.verdicts["second_law"] = audit.verdict


def _landauer_options(p: argparse.ArgumentParser) -> None:
    from .landauer import DEFAULT_MARGIN

    p.add_argument("--power", type=_finite, required=True, help="watts")
    p.add_argument("--noise-temp", type=_finite, default=None, help="kelvin")
    p.add_argument("--margin", type=_finite, default=DEFAULT_MARGIN)
    p.add_argument("--bit-rate", type=_finite, default=None, help="1/s")


def _cmd_landauer(args, report: Report) -> None:
    if args.noise_temp is None and args.bit_rate is None:
        raise ValueError("landauer needs --noise-temp and/or --bit-rate")
    from . import landauer
    from .core import SI

    report.consts = SI
    if args.bit_rate is not None:
        report.add("device_temperature", landauer.device_temperature(args.power, args.bit_rate))
        report.add("energy_per_bit", landauer.energy_per_bit(args.power, args.bit_rate))
    if args.noise_temp is not None:
        f_max = landauer.max_bit_rate(args.power, args.noise_temp, args.margin)
        report.add("f_max", f_max, "1/s")
        report.add("device_temperature_at_f_max", landauer.device_temperature(args.power, f_max))
        report.add("energy_per_bit_at_f_max", landauer.energy_per_bit(args.power, f_max))


#: The command tree: the words of each command -> (help, handler, options).
#: A group has no handler and no options; its commands follow it, and
#: every list of choices keeps this order.
_COMMANDS = {
    ("gas",): ("two-level gas computations", None, None),
    ("gas", "entropy"): ("multiplicity and entropy", _cmd_gas_entropy, _gas_entropy_options),
    ("gas", "temperature"): ("closed-form and finite-difference temperature",
                             _cmd_gas_temperature, _gas_temperature_options),
    ("gas", "occupation"): ("expected occupation at a temperature",
                            _cmd_gas_occupation, _gas_occupation_options),
    ("gas", "transfer"): ("hot-to-cold transfer entropy balance",
                          _cmd_gas_transfer, _gas_transfer_options),
    ("gas", "metropolis"): ("Monte Carlo occupation sampler",
                            _cmd_gas_metropolis, _gas_metropolis_options),
    ("file",): ("analyze a binary file", _cmd_file, _file_options),
    ("generate",): ("write a synthetic corpus", _cmd_generate, _generate_options),
    ("broadcast",): ("one-to-N broadcast Clausius audit", _cmd_broadcast, _broadcast_options),
    ("ledger",): ("Clausius inequality audits", None, None),
    ("ledger", "check"): ("informatic Clausius check dS >= k dI",
                          _cmd_ledger_check, _ledger_check_options),
    ("ledger", "combined"): ("combined thermal+informatic audit",
                             _cmd_ledger_combined, _ledger_combined_options),
    ("fiber",): ("amplifier Carnot cycle", None, None),
    ("fiber", "simulate"): ("multi-span chain simulation",
                            _cmd_fiber_simulate, _fiber_simulate_options),
    ("fiber", "efficiency"): ("Carnot efficiency of two baths",
                              _cmd_fiber_efficiency, _fiber_efficiency_options),
    ("fiber", "amplifier"): ("entropy-conserving amplifier work",
                             _cmd_fiber_amplifier, _fiber_amplifier_options),
    ("landauer",): ("computing-power bound (SI units)", _cmd_landauer, _landauer_options),
}


# --- parser ---------------------------------------------------------------

#: The dest of the command word at each depth.
_DESTS = ("command", "subcommand")


def _leaf_words(argv: list[str]) -> tuple[str, ...] | None:
    """The words of the command that ``argv`` runs, or None when its
    leading words name no command that runs."""
    words: tuple[str, ...] = ()
    for token in argv:
        if words + (token,) not in _COMMANDS:
            return None
        words += (token,)
        if _COMMANDS[words][1] is not None:
            return words
    return None


def _add_commands(parser: argparse.ArgumentParser, words: tuple[str, ...],
                  leaf: tuple[str, ...] | None) -> argparse.ArgumentParser | None:
    """Add the commands under ``words`` to ``parser``: all of them, or only
    the one on the path to ``leaf``, and return ``leaf``'s parser (None
    when ``leaf`` is None). A parser built for one path still shows every
    choice in its usage."""
    names = [path[-1] for path in _COMMANDS if path[:-1] == words]
    built = names if leaf is None else [leaf[len(words)]]
    metavar = None if built == names else "{" + ",".join(names) + "}"
    sub = parser.add_subparsers(dest=_DESTS[len(words)], required=True, metavar=metavar)
    command = None
    for name in built:
        path = words + (name,)
        help, handler, options = _COMMANDS[path]
        child = sub.add_parser(name, help=help)
        if handler is None:
            command = _add_commands(child, path, leaf)
            continue
        if path == leaf:
            command = child
        child.set_defaults(handler=handler)
        # The options every command takes are listed apart.
        common = child.add_argument_group("common options")
        common.add_argument("--json", action="store_true", help="emit the report as one JSON document")
        common.add_argument("--config", default=None, help="key=value file of defaults; flags win")
        options(child)
    return command


def _parsers(leaf: tuple[str, ...] | None) -> tuple[argparse.ArgumentParser,
                                                     argparse.ArgumentParser | None]:
    """The parser of the whole command tree, or, given the words of one
    command, of only the parsers on the path to it; and that command's."""
    parser = argparse.ArgumentParser(prog="infotherm",
                                     description="thermodynamics of two-level gases and binary files")
    return parser, _add_commands(parser, (), leaf)


def build_parser() -> argparse.ArgumentParser:
    """The parser of the whole command tree."""
    return _parsers(None)[0]


def _config_path(parser: argparse.ArgumentParser, tokens: list[str]) -> str | None:
    """The value of the last ``--config`` in ``tokens``, read as argparse
    reads them: a long option may be a unique prefix of its name, the token
    after an option that takes a value is that value, and every token after
    ``--`` is positional."""
    options = parser._option_string_actions
    path = None
    tokens = iter(tokens)
    for token in tokens:
        if token == "--":
            break
        if not token.startswith("--"):
            continue
        name, eq, value = token.partition("=")
        matches = [option for option in options if option.startswith(name)]
        action = options.get(name) or (options[matches[0]] if len(matches) == 1 else None)
        if action is None or action.nargs == 0:
            continue
        if not eq:
            value = next(tokens, None)
        if action.dest == "config":
            path = value
    return path


def _inject_config(parser: argparse.ArgumentParser, argv: list[str], start: int) -> list[str]:
    """Insert config-file pairs as flags right after the command words
    ``argv[:start]`` of the command ``parser``, so argparse applies its own
    types and required checks, and flags on the command line, which come
    later, win as argparse's last occurrence."""
    path = _config_path(parser, argv[start:])
    if path is None:
        return argv
    extra: list[str] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, value = (part.strip() for part in line.split("=", 1))
            if key in _SWITCHES:
                if value not in ("true", "false"):
                    raise ValueError(f"{path}:{lineno}: {key} takes true or false, got {value!r}")
                if value == "true":
                    extra.append(f"--{key}")
            else:
                extra.append(f"--{key}={value}")
    return argv[:start] + extra + argv[start:]


#: Options every command takes; no report lists them.
_COMMON = ("json", "config")
_JOULES = "_joules"


def _report(parser: argparse.ArgumentParser, command: tuple[str, ...], args) -> Report:
    """The report of the parsed command ``parser``, named by its command
    words. Under ``--units si`` each ``--<energy>-joules`` value replaces
    ``--<energy>``. The inputs are the command's own options in declared
    order, the joules flags left out, and an option whose default is
    suppressed only when it was given."""
    from .core import REDUCED, SI

    consts = SI if getattr(args, "units", None) == "si" else REDUCED
    actions = [action for action in parser._actions if action.dest in args]
    if consts is SI:
        for action in actions:
            if action.dest.endswith(_JOULES):
                value = getattr(args, action.dest)
                if value is None:
                    raise ValueError(f"--units si requires {action.option_strings[0]}")
                setattr(args, action.dest[:-len(_JOULES)], value)
    inputs = {action.dest: getattr(args, action.dest) for action in actions
              if action.dest not in _COMMON and not action.dest.endswith(_JOULES)}
    return Report(" ".join(command), consts, inputs)


def run(argv: list[str]) -> int:
    argv = list(argv)
    leaf = _leaf_words(argv)
    parser, command = _parsers(leaf)
    try:
        if leaf is not None:  # else argv asks for --help or is a usage error: both exit
            argv = _inject_config(command, argv, len(leaf))
        args = parser.parse_args(argv)
        report = _report(command, leaf, args)
        args.handler(args, report)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ValueError, OverflowError, OSError) as exc:
        print(f"infotherm: error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(report.to_json() if args.json else report.to_text())
    return report.exit_status()


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
