"""Mechanized SCMs, agent detection, abstraction checking, and the voting
surrogate experiment."""

from mechscm.core import (
    BernoulliAssign,
    DeterministicAssign,
    DeterministicSCM,
    Distribution,
    Domain,
    EMPTY_SETTING,
    EmptyDomain,
    FiniteDomain,
    IncompleteSolution,
    InducedSCM,
    KernelAssign,
    Layer,
    MechSCMError,
    MechanizedSCM,
    NoConvergence,
    NonFiniteDomain,
    ParameterizedSCM,
    RealBox,
    SamplerAssign,
    Setting,
    Table,
    VarId,
    distribution,
    induce_scm,
    mech,
    obj,
    solution_distributions,
    solution_set,
    solve_acyclic,
    solve_enumerate,
    values_close,
)

__version__ = "0.1.0"
