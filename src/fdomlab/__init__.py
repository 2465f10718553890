"""fdomlab: exact computation, certification and construction for the
fractional domatic number of graphs."""

__version__ = "0.1.0"

from .graphs import Graph, read_graph_text, write_graph_text
from .simplex import simplex_exact, LPInfeasible, LPUnbounded
from .generators import (generate_named, cycle, complete, complete_bipartite,
                         kneser, coxeter, incidence_graph, girth6_family,
                         subdivide, split_construction, graph_square,
                         join_with_clique, hammock_expand, theta_graph)
from .structure import cut_vertices, find_long_suspended_path, SuspendedPath, Hammock
from .badfamily import bad_family_check, bad_family_members
from .domset import (is_dominating, enumerate_minimal_dominating_sets,
                     domination_number, min_weight_dominating_set,
                     max_weight_independent_set, domatic_number, CapExceeded)
from .fdom import (fdom_exact, fdom_colgen, verify_primal, verify_dual,
                   closed_form_certificate, sample_lnbound, pq_colouring_exists,
                   PrimalCertificate, DualCertificate, LPResult)
from .distributions import (DominatingDistribution, FractionalColouring,
                            verify_f_dominating, colouring_to_distribution,
                            distribution_to_colouring, complete_to_r,
                            cycle_distribution, standard_demand,
                            constant_demand, relabel)
from .gluing import glue_at_cutvertex, extend_over_pair, attach_suspended_path
from .pathtables import path_tables, PathColouringTable
from .construct import (construct52, planar_girth_construct,
                        base_case_hammock, hammock_base_annotations,
                        intersecting_family, BadFamilyInput)
from .figures import exceptional_colouring, catalog_keys
from .chromatic import (fractional_chromatic, chromatic_number,
                        check_reduction, fullness_check, join_check,
                        maximal_independent_sets)
from .enumerate_graphs import all_graphs, connected_graphs
