"""Finite order-theoretic structures: spectra, support data, frames, tensor ideals."""

from .order import (
    BoundedLattice,
    Poset,
    as_bounded_lattice,
    build_poset,
    dual,
    enumerate_morphisms,
    is_distributive,
    two,
)
from .ideals import (
    all_ideals,
    ideal_of_morphism,
    join_irreducibles,
    morphism_of_ideal,
)
from .topology import (
    FiniteSpace,
    Spectrum,
    cl_lattice,
    enumerate_continuous,
    hochster_dual,
    is_continuous,
    omega_lattice,
    sp_space,
    space_from_closed_basis,
    space_from_open_basis,
    spc_space,
    specialization_order,
)
from .support import (
    SupportDatum,
    check_adjunction,
    check_naturality,
    enumerate_support_data,
    map_of_sigma,
    open_closed_translate,
    sigma_of_map,
    validate_support_datum,
)
from .frames import (
    as_frame,
    extend_morphism,
    id_vs_omega_dual,
    is_spatial,
    points,
    pt_ideal_vs_hochster,
)
from .tensor import (
    TensorLattice,
    all_radical_tensor_ideals,
    check_classification,
    check_tensor_lemma,
    fuzz_tensor_lattices,
    quotient_lattice,
    radical_closure,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
