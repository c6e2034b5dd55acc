"""Every subcommand's options, pinned.

Each entry is ``dest: (flags, default, choices, nargs, const, type)``.  The
shared option groups (``env``/``--overrides``, ``--oracle``/``--seed``,
``--episodes``/``--steps``, the shield builder's CEGIS budget and the
deployment flags) reach several subcommands through argparse parent parsers,
so a default changed in one group shows here for each command that inherits
it.  ``--store`` keeps a meaning per command: ``nargs='?'`` where the flag
opts into a store (synthesize, run, monitor, adapt, lint), a plain path where
the default store is used without it (audit, verify, store) and for the sweeps.
"""

from __future__ import annotations

import argparse

from repro.cli import build_parser

SURFACE = {
    'adapt': {
        'bound_floor': (('--bound-floor',), 0.0, None, None, None, 'float'),
        'confidence_sigmas': (('--confidence-sigmas',), 3.0, None, None, None, 'float'),
        'disturbance': (('--disturbance',), 'none', ('none', 'uniform', 'gaussian', 'sinusoidal'), None, None, None),
        'env': ((), None, None, None, None, None),
        'episodes': (('--episodes',), 50, None, None, None, 'positive_int'),
        'float32': (('--float32',), False, None, 0, True, None),
        'magnitude': (('--magnitude',), 0.05, None, None, None, 'float'),
        'max_counterexamples': (('--max-counterexamples',), 8, None, None, None, 'int'),
        'oracle': (('--oracle',), 'cloned', ('cloned', 'ddpg', 'ars'), None, None, None),
        'overrides': (('--overrides',), None, None, None, None, None),
        'seed': (('--seed',), 0, None, None, None, 'int'),
        'shards': (('--shards',), None, None, None, None, 'positive_int'),
        'steps': (('--steps',), 250, None, None, None, 'int'),
        'store': (('--store',), None, None, '?', '', None),
        'synthesis_iterations': (('--synthesis-iterations',), 10, None, None, None, 'int'),
        'workers': (('--workers',), 1, None, None, None, 'positive_int'),
    },
    'audit': {
        'artifact': ((), None, None, None, None, None),
        'engine': (('--engine',), 'bnb', ('bnb', 'farkas'), None, None, None),
        'env': (('--env',), None, None, None, None, None),
        'max_boxes': (('--max-boxes',), 120000, None, None, None, 'int'),
        'overrides': (('--overrides',), None, None, None, None, None),
        'store': (('--store',), None, None, None, None, None),
    },
    'chaos': {
        'list_scenarios': (('--list',), False, None, 0, True, None),
        'output': (('--output',), None, None, None, None, None),
        'scenario': ((), None, None, '*', None, None),
        'seed': (('--seed',), 0, None, None, None, 'int'),
        'workdir': (('--workdir',), None, None, None, None, None),
    },
    'describe': {
        'env': ((), None, None, None, None, None),
        'overrides': (('--overrides',), None, None, None, None, None),
    },
    'evaluate': {
        'artifact': ((), None, None, None, None, None),
        'env': (('--env',), None, None, None, None, None),
        'episodes': (('--episodes',), 5, None, None, None, 'positive_int'),
        'oracle': (('--oracle',), 'cloned', ('cloned', 'ddpg', 'ars'), None, None, None),
        'overrides': (('--overrides',), None, None, None, None, None),
        'seed': (('--seed',), 0, None, None, None, 'int'),
        'steps': (('--steps',), 150, None, None, None, 'int'),
    },
    'fig3': {
        'scale': (('--scale',), 'smoke', ('smoke', 'medium', 'paper'), None, None, None),
        'store': (('--store',), None, None, None, None, None),
        'workers': (('--workers',), 1, None, None, None, 'positive_int'),
    },
    'fig6': {
        'scale': (('--scale',), 'smoke', ('smoke', 'medium', 'paper'), None, None, None),
        'store': (('--store',), None, None, None, None, None),
        'workers': (('--workers',), 1, None, None, None, 'positive_int'),
    },
    'fuzz': {
        'corpus': (('--corpus',), None, None, None, None, None),
        'list_properties': (('--list-properties',), False, None, 0, True, None),
        'no_shrink': (('--no-shrink',), False, None, 0, True, None),
        'properties': (('--properties',), None, None, '*', None, None),
        'rounds': (('--rounds', '--iterations'), 50, None, None, None, 'int'),
        'seed': (('--seed',), 0, None, None, None, 'int'),
        'time_budget': (('--time-budget',), None, None, None, None, 'float'),
    },
    'lint': {
        'coverage_samples': (('--coverage-samples',), 64, None, None, None, 'int'),
        'env': (('--env',), None, None, None, None, None),
        'json': (('--json',), False, None, 0, True, None),
        'keys': ((), None, None, '*', None, None),
        'store': (('--store',), None, None, '?', '', None),
        'strict': (('--strict',), False, None, 0, True, None),
    },
    'list': {
    },
    'monitor': {
        'disturbance': (('--disturbance',), 'none', ('none', 'uniform', 'gaussian', 'sinusoidal'), None, None, None),
        'env': ((), None, None, None, None, None),
        'episodes': (('--episodes',), 50, None, None, None, 'positive_int'),
        'float32': (('--float32',), False, None, 0, True, None),
        'magnitude': (('--magnitude',), 0.05, None, None, None, 'float'),
        'max_counterexamples': (('--max-counterexamples',), 8, None, None, None, 'int'),
        'oracle': (('--oracle',), 'cloned', ('cloned', 'ddpg', 'ars'), None, None, None),
        'overrides': (('--overrides',), None, None, None, None, None),
        'seed': (('--seed',), 0, None, None, None, 'int'),
        'shards': (('--shards',), None, None, None, None, 'positive_int'),
        'steps': (('--steps',), 250, None, None, None, 'int'),
        'store': (('--store',), None, None, '?', '', None),
        'synthesis_iterations': (('--synthesis-iterations',), 10, None, None, None, 'int'),
        'workers': (('--workers',), 1, None, None, None, 'positive_int'),
    },
    'robustness': {
        'benchmarks': ((), None, None, '*', None, None),
        'journal': (('--journal',), None, None, None, None, None),
        'kinds': (('--kinds',), None, ('none', 'uniform', 'gaussian', 'sinusoidal'), '*', None, None),
        'magnitude': (('--magnitude',), 0.05, None, None, None, 'float'),
        'no_timing': (('--no-timing',), False, None, 0, True, None),
        'resume': (('--resume',), False, None, 0, True, None),
        'scale': (('--scale',), 'smoke', ('smoke', 'medium', 'paper'), None, None, None),
        'store': (('--store',), None, None, None, None, None),
        'workers': (('--workers',), 1, None, None, None, 'positive_int'),
    },
    'run': {
        'checkpoint': (('--checkpoint',), None, None, None, None, None),
        'deadline': (('--deadline',), None, None, None, None, 'float'),
        'env': ((), None, None, None, None, None),
        'episodes': (('--episodes',), 50, None, None, None, 'positive_int'),
        'float32': (('--float32',), False, None, 0, True, None),
        'max_attempts': (('--max-attempts',), 3, None, None, None, 'int'),
        'max_counterexamples': (('--max-counterexamples',), 8, None, None, None, 'int'),
        'oracle': (('--oracle',), 'cloned', ('cloned', 'ddpg', 'ars'), None, None, None),
        'overrides': (('--overrides',), None, None, None, None, None),
        'resume': (('--resume',), False, None, 0, True, None),
        'seed': (('--seed',), 0, None, None, None, 'int'),
        'shards': (('--shards',), None, None, None, None, 'positive_int'),
        'steps': (('--steps',), 250, None, None, None, 'int'),
        'store': (('--store',), None, None, '?', '', None),
        'synthesis_iterations': (('--synthesis-iterations',), 10, None, None, None, 'int'),
        'workers': (('--workers',), 1, None, None, None, 'positive_int'),
    },
    'store': {
        'store': (('--store',), None, None, None, None, None),
    },
    'store export': {
        'key': ((), None, None, None, None, None),
        'output': ((), None, None, None, None, None),
    },
    'store list': {
    },
    'store rm': {
        'key': ((), None, None, None, None, None),
    },
    'store show': {
        'key': ((), None, None, None, None, None),
    },
    'store verify': {
        'delete_corrupt': (('--delete-corrupt',), False, None, 0, True, None),
    },
    'synthesize': {
        'degree': (('--degree',), None, None, None, None, 'int'),
        'env': ((), None, None, None, None, None),
        'episodes': (('--episodes',), 5, None, None, None, 'int'),
        'max_counterexamples': (('--max-counterexamples',), 8, None, None, None, 'int'),
        'oracle': (('--oracle',), 'cloned', ('cloned', 'ddpg', 'ars'), None, None, None),
        'output': (('--output',), None, None, None, None, None),
        'overrides': (('--overrides',), None, None, None, None, None),
        'seed': (('--seed',), 0, None, None, None, 'int'),
        'steps': (('--steps',), 150, None, None, None, 'int'),
        'store': (('--store',), None, None, '?', '', None),
        'synthesis_iterations': (('--synthesis-iterations',), 10, None, None, None, 'int'),
        'workers': (('--workers',), 1, None, None, None, 'positive_int'),
    },
    'table1': {
        'benchmarks': ((), None, None, '*', None, None),
        'journal': (('--journal',), None, None, None, None, None),
        'no_timing': (('--no-timing',), False, None, 0, True, None),
        'resume': (('--resume',), False, None, 0, True, None),
        'scale': (('--scale',), 'smoke', ('smoke', 'medium', 'paper'), None, None, None),
        'store': (('--store',), None, None, None, None, None),
        'workers': (('--workers',), 1, None, None, None, 'positive_int'),
    },
    'table2': {
        'benchmarks': ((), None, None, '*', None, None),
        'degrees': (('--degrees',), None, None, '*', None, 'int'),
        'journal': (('--journal',), None, None, None, None, None),
        'no_timing': (('--no-timing',), False, None, 0, True, None),
        'resume': (('--resume',), False, None, 0, True, None),
        'scale': (('--scale',), 'smoke', ('smoke', 'medium', 'paper'), None, None, None),
        'store': (('--store',), None, None, None, None, None),
        'workers': (('--workers',), 1, None, None, None, 'positive_int'),
    },
    'table3': {
        'changes': ((), None, None, '*', None, None),
        'journal': (('--journal',), None, None, None, None, None),
        'no_timing': (('--no-timing',), False, None, 0, True, None),
        'resume': (('--resume',), False, None, 0, True, None),
        'scale': (('--scale',), 'smoke', ('smoke', 'medium', 'paper'), None, None, None),
        'store': (('--store',), None, None, None, None, None),
        'workers': (('--workers',), 1, None, None, None, 'positive_int'),
    },
    'verify': {
        'backend': (('--backend',), 'auto', None, None, None, None),
        'backend_budget': (('--backend-budget',), None, None, None, None, 'float'),
        'degree': (('--degree',), None, None, None, None, 'int'),
        'env': (('--env',), None, None, None, None, None),
        'key': ((), None, None, None, None, None),
        'no_cache': (('--no-cache',), False, None, 0, True, None),
        'overrides': (('--overrides',), None, None, None, None, None),
        'store': (('--store',), None, None, None, None, None),
    },
}


def _surface(parser, prefix=()):
    surface = {}
    if prefix:
        surface[" ".join(prefix)] = {
            action.dest: (
                tuple(action.option_strings),
                action.default,
                tuple(action.choices) if action.choices else None,
                action.nargs,
                action.const,
                getattr(action.type, "__name__", None),
            )
            for action in parser._actions
            if not isinstance(action, (argparse._HelpAction, argparse._SubParsersAction))
        }
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, subparser in action.choices.items():
                surface.update(_surface(subparser, prefix + (name,)))
    return surface


def test_subcommands_are_pinned():
    assert sorted(_surface(build_parser())) == sorted(SURFACE)


def test_every_option_is_pinned():
    surface = _surface(build_parser())
    for command, options in SURFACE.items():
        assert surface[command] == options, command
