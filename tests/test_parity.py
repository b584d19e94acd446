"""Parity of the closed-form array assembly with the per-pair reference
oracles, of the closed-form formal degree with the meshgrid quadrature to
the quadrature's error, of the array group ball with the
one-matrix-at-a-time paths it replaced (bit for bit), and of CLI output
with values captured from the per-pair implementation that the array
assembly replaced.

The golden values below are verbatim outputs of ``bergman-density --ball 6``
at i (stabiliser order 2), rho (order 3) and a generic point (order 1), and
of ``finite-scan --n-max 3 --windows 4 --seed 7``, produced by the
implementation that filled every matrix one Python call per vector pair
(run with one BLAS thread), except that ``covolume``, ``formal_degree`` and
``density_product`` are the closed forms pi/3, (alpha - 1) / (4 pi) and
their product, which replaced the two quadratures of that implementation,
and the report schema is version 2, without the quadrature's error
estimate. Integers, booleans, verdicts and counts must be equal and floats
agree to 1e-12 relative, except for

* quantities at the roundoff floor, compared with an absolute tolerance of
  1e-12 times their scale: ``riesz_min`` against ``riesz_max``, and the
  identity residuals against 1;
* the probe estimates ``a_est`` and ``b_est`` and their traces. They whiten
  with probe-Gram eigenvalues down to ``DEFAULT_REL_TOL * lambda_max``,
  which amplifies the last-digit differences of the kernel entries. Measured
  against the golden values: the minima (``a_est``) differ by at most
  4.6e-11 times ``b_est`` and 5.9e-6 relative, the maxima (``b_est``) by at
  most 4e-11 relative. So a maximum must agree to 1e-9 relative, and a
  minimum to 1e-9 times its step's ``b_est`` and to 1e-4 relative at once;
  a golden minimum of exactly 0 (the clamp) must be reproduced exactly.
"""

import csv
import io
import json
import math

import numpy as np
import pytest
import oracles
from oracles import kernel_cross_oracle, pi_shift, vector_gram, vector_gram_oracle

from orbitdensity import bergman, cli, commands, finite_gabor, frames, fuchsian
from orbitdensity.hyperbolic import act, distance, rounding_bound

ORACLE_RTOL = 1e-13
FLOAT_RTOL = 1e-12
FLOOR_TOL = 1e-12
PROBE_MAX_RTOL = 1e-9
PROBE_MIN_TOL = 1e-9  # times the step's b_est
PROBE_MIN_RTOL = 1e-4

COVOLUME = math.pi / 3.0


def degree(alpha: float) -> float:
    return (alpha - 1.0) / (4.0 * math.pi)


POINTS = [
    (1j, 2.0, 2),
    (complex(0.5, math.sqrt(3.0) / 2.0), 3.0, 3),
    (complex(-0.3, 1.4), 7.5, 1),
]


# Captured from the per-pair implementation; see the module docstring.
GOLDEN_DENSITY = {
    ('--alpha', '2', '--z', 'i'): [
        {'type': 'frame_report', 'schema_version': '2', 'lattice': 'psl2z', 'ball_norm': 4.0,
         'stab_order': 2, 'covolume': COVOLUME, 'formal_degree': degree(2.0),
         'density_product': COVOLUME * degree(2.0), 'density_bound': 0.5,
         'gen_norm_sq': 0.07957747154594767, 'a_est': 0.0, 'b_est': 1.08566611596741,
         'riesz_min': 2.300732707977284e-07, 'riesz_max': 0.5429121303352735,
         'frame_decision': False, 'riesz_decision': False, 'verdict_i_applicable': False,
         'verdict_i_pass': True, 'verdict_ii_applicable': False, 'verdict_ii_pass': False,
         'consistent': True, 'diag_ball_certified': True,
         'diag_gamma_count': 50,
         'diag_lambda_count': 25, 'diag_probe_count': 40, 'diag_probe_rank': 26,
         'diag_probe_trace_max': '1.08566611596741', 'diag_probe_trace_min': '0.0',
         'diag_riesz_trace_max': '0.5429121303352735',
         'diag_riesz_trace_min': '2.300732707977284e-07',
         'diag_s_relation_residual': 2.9273581238346144e-16, 'diag_truncation_radius': 4.0},
        {'type': 'frame_report', 'schema_version': '2', 'lattice': 'psl2z', 'ball_norm': 5.0,
         'stab_order': 2, 'covolume': COVOLUME, 'formal_degree': degree(2.0),
         'density_product': COVOLUME * degree(2.0), 'density_bound': 0.5,
         'gen_norm_sq': 0.07957747154594767, 'a_est': 2.5131763684497353e-06,
         'b_est': 1.157138416237584, 'riesz_min': 5.000034594257653e-08,
         'riesz_max': 0.5786356844407587, 'frame_decision': False, 'riesz_decision': False,
         'verdict_i_applicable': False, 'verdict_i_pass': True, 'verdict_ii_applicable': False,
         'verdict_ii_pass': False, 'consistent': True, 'diag_ball_certified': True,
         'diag_gamma_count': 66,
         'diag_lambda_count': 33, 'diag_probe_count': 40, 'diag_probe_rank': 26,
         'diag_probe_trace_max': '1.08566611596741;1.157138416237584',
         'diag_probe_trace_min': '0.0;2.5131763684497353e-06',
         'diag_riesz_trace_max': '0.5429121303352735;0.5786356844407587',
         'diag_riesz_trace_min': '2.300732707977284e-07;5.000034594257653e-08',
         'diag_s_relation_residual': 3.679861010828907e-16, 'diag_truncation_radius': 5.0},
        {'type': 'frame_report', 'schema_version': '2', 'lattice': 'psl2z', 'ball_norm': 6.0,
         'stab_order': 2, 'covolume': COVOLUME, 'formal_degree': degree(2.0),
         'density_product': COVOLUME * degree(2.0), 'density_bound': 0.5,
         'gen_norm_sq': 0.07957747154594767, 'a_est': 0.00019024405945966135,
         'b_est': 1.222302982661304, 'riesz_min': 7.780359972577106e-09,
         'riesz_max': 0.6115996205792182, 'frame_decision': False, 'riesz_decision': False,
         'verdict_i_applicable': False, 'verdict_i_pass': True, 'verdict_ii_applicable': False,
         'verdict_ii_pass': False, 'consistent': True, 'diag_ball_certified': True,
         'diag_gamma_count': 98,
         'diag_lambda_count': 49, 'diag_probe_count': 40, 'diag_probe_rank': 26,
         'diag_probe_trace_max': '1.08566611596741;1.157138416237584;1.222302982661304',
         'diag_probe_trace_min': '0.0;2.5131763684497353e-06;0.00019024405945966135',
         'diag_riesz_trace_max': '0.5429121303352735;0.5786356844407587;0.6115996205792182',
         'diag_riesz_trace_min': '2.300732707977284e-07;5.000034594257653e-08;7.780359972577106e-09',
         'diag_s_relation_residual': 4.49675356789382e-16, 'diag_truncation_radius': 6.0},
        {'type': 'summary', 'lattice': 'psl2z', 'alpha': 2.0, 'z': '0.0+1.0i', 'stab_order': 2,
         'covolume': COVOLUME, 'formal_degree': degree(2.0),
         'density_product': COVOLUME * degree(2.0), 'density_bound': 0.5,
         'verdict_i_applicable': False, 'verdict_i_pass': True, 'verdict_ii_applicable': False,
         'verdict_ii_pass': False, 'verdict_consistency': 'pass',
         'note': 'numerical mode analyses finite truncations; decisions are trend-based, not proofs'},
    ],
    ('--alpha', '3', '--z', '0.5+0.8660254037844386i'): [
        {'type': 'frame_report', 'schema_version': '2', 'lattice': 'psl2z', 'ball_norm': 4.0,
         'stab_order': 3, 'covolume': COVOLUME, 'formal_degree': degree(3.0),
         'density_product': COVOLUME * degree(3.0), 'density_bound': 0.3333333333333333,
         'gen_norm_sq': 0.24503506463190763, 'a_est': 0.0, 'b_est': 2.4128231983008903,
         'riesz_min': 0.0003683854047309073, 'riesz_max': 0.8733807959938494,
         'frame_decision': False, 'riesz_decision': True, 'verdict_i_applicable': False,
         'verdict_i_pass': True, 'verdict_ii_applicable': True, 'verdict_ii_pass': False,
         'consistent': False, 'diag_ball_certified': True,
         'diag_gamma_count': 50,
         'diag_lambda_count': 26, 'diag_probe_count': 40, 'diag_probe_rank': 27,
         'diag_probe_trace_max': '2.4128231983008903', 'diag_probe_trace_min': '0.0',
         'diag_riesz_trace_max': '0.8733807959938494',
         'diag_riesz_trace_min': '0.0003683854047309073',
         'diag_s_relation_residual': 4.2812475342918745e-16, 'diag_truncation_radius': 4.0},
        {'type': 'frame_report', 'schema_version': '2', 'lattice': 'psl2z', 'ball_norm': 5.0,
         'stab_order': 3, 'covolume': COVOLUME, 'formal_degree': degree(3.0),
         'density_product': COVOLUME * degree(3.0), 'density_bound': 0.3333333333333333,
         'gen_norm_sq': 0.24503506463190763, 'a_est': 4.4333757716235636e-07,
         'b_est': 2.525215132988645, 'riesz_min': 0.0001900004094602238,
         'riesz_max': 0.8964630194814691, 'frame_decision': False, 'riesz_decision': True,
         'verdict_i_applicable': False, 'verdict_i_pass': True, 'verdict_ii_applicable': True,
         'verdict_ii_pass': False, 'consistent': False, 'diag_ball_certified': True,
         'diag_gamma_count': 66,
         'diag_lambda_count': 34, 'diag_probe_count': 40, 'diag_probe_rank': 27,
         'diag_probe_trace_max': '2.4128231983008903;2.525215132988645',
         'diag_probe_trace_min': '0.0;4.4333757716235636e-07',
         'diag_riesz_trace_max': '0.8733807959938494;0.8964630194814691',
         'diag_riesz_trace_min': '0.0003683854047309073;0.0001900004094602238',
         'diag_s_relation_residual': 4.2812475342918745e-16, 'diag_truncation_radius': 5.0},
        {'type': 'frame_report', 'schema_version': '2', 'lattice': 'psl2z', 'ball_norm': 6.0,
         'stab_order': 3, 'covolume': COVOLUME, 'formal_degree': degree(3.0),
         'density_product': COVOLUME * degree(3.0), 'density_bound': 0.3333333333333333,
         'gen_norm_sq': 0.24503506463190763, 'a_est': 0.00048456338468381516,
         'b_est': 2.603121529081818, 'riesz_min': 8.636946630927403e-05,
         'riesz_max': 0.9158272707120105, 'frame_decision': False, 'riesz_decision': True,
         'verdict_i_applicable': False, 'verdict_i_pass': True, 'verdict_ii_applicable': True,
         'verdict_ii_pass': False, 'consistent': False, 'diag_ball_certified': True,
         'diag_gamma_count': 98,
         'diag_lambda_count': 50, 'diag_probe_count': 40, 'diag_probe_rank': 27,
         'diag_probe_trace_max': '2.4128231983008903;2.525215132988645;2.603121529081818',
         'diag_probe_trace_min': '0.0;4.4333757716235636e-07;0.00048456338468381516',
         'diag_riesz_trace_max': '0.8733807959938494;0.8964630194814691;0.9158272707120105',
         'diag_riesz_trace_min': '0.0003683854047309073;0.0001900004094602238;8.636946630927403e-05',
         'diag_s_relation_residual': 4.2812475342918745e-16, 'diag_truncation_radius': 6.0},
        {'type': 'summary', 'lattice': 'psl2z', 'alpha': 3.0, 'z': '0.5+0.8660254037844386i',
         'stab_order': 3, 'covolume': COVOLUME, 'formal_degree': degree(3.0),
         'density_product': COVOLUME * degree(3.0), 'density_bound': 0.3333333333333333,
         'verdict_i_applicable': False, 'verdict_i_pass': True, 'verdict_ii_applicable': True,
         'verdict_ii_pass': False, 'verdict_consistency': 'flagged',
         'note': 'numerical mode analyses finite truncations; decisions are trend-based, not proofs'},
    ],
    ('--alpha', '7.5', '--z=-0.3+1.4i'): [
        {'type': 'frame_report', 'schema_version': '2', 'lattice': 'psl2z', 'ball_norm': 4.0,
         'stab_order': 1, 'covolume': COVOLUME, 'formal_degree': degree(7.5),
         'density_product': COVOLUME * degree(7.5), 'density_bound': 1.0,
         'gen_norm_sq': 0.04147087751436179, 'a_est': 0.0005641689260238583,
         'b_est': 0.13654597462701065, 'riesz_min': 1.3637243566335663e-08,
         'riesz_max': 0.1366480943710486, 'frame_decision': True, 'riesz_decision': False,
         'verdict_i_applicable': True, 'verdict_i_pass': True, 'verdict_ii_applicable': False,
         'verdict_ii_pass': False, 'consistent': True, 'diag_ball_certified': True,
         'diag_gamma_count': 50,
         'diag_lambda_count': 50, 'diag_probe_count': 40, 'diag_probe_rank': 25,
         'diag_probe_trace_max': '0.13654597462701065',
         'diag_probe_trace_min': '0.0005641689260238583',
         'diag_riesz_trace_max': '0.1366480943710486',
         'diag_riesz_trace_min': '1.3637243566335663e-08', 'diag_s_relation_residual': 0.0,
         'diag_truncation_radius': 4.0},
        {'type': 'frame_report', 'schema_version': '2', 'lattice': 'psl2z', 'ball_norm': 5.0,
         'stab_order': 1, 'covolume': COVOLUME, 'formal_degree': degree(7.5),
         'density_product': COVOLUME * degree(7.5), 'density_bound': 1.0,
         'gen_norm_sq': 0.04147087751436179, 'a_est': 0.0016775698517910137,
         'b_est': 0.13756722907202346, 'riesz_min': 2.068934504173342e-09,
         'riesz_max': 0.1379745011745072, 'frame_decision': True, 'riesz_decision': False,
         'verdict_i_applicable': True, 'verdict_i_pass': True, 'verdict_ii_applicable': False,
         'verdict_ii_pass': False, 'consistent': True, 'diag_ball_certified': True,
         'diag_gamma_count': 66,
         'diag_lambda_count': 66, 'diag_probe_count': 40, 'diag_probe_rank': 25,
         'diag_probe_trace_max': '0.13654597462701065;0.13756722907202346',
         'diag_probe_trace_min': '0.0005641689260238583;0.0016775698517910137',
         'diag_riesz_trace_max': '0.1366480943710486;0.1379745011745072',
         'diag_riesz_trace_min': '1.3637243566335663e-08;2.068934504173342e-09',
         'diag_s_relation_residual': 0.0, 'diag_truncation_radius': 5.0},
        {'type': 'frame_report', 'schema_version': '2', 'lattice': 'psl2z', 'ball_norm': 6.0,
         'stab_order': 1, 'covolume': COVOLUME, 'formal_degree': degree(7.5),
         'density_product': COVOLUME * degree(7.5), 'density_bound': 1.0,
         'gen_norm_sq': 0.04147087751436179, 'a_est': 0.0030336307256371947,
         'b_est': 0.13833819996619848, 'riesz_min': 2.2526024030929673e-10,
         'riesz_max': 0.1392204252794416, 'frame_decision': True, 'riesz_decision': False,
         'verdict_i_applicable': True, 'verdict_i_pass': True, 'verdict_ii_applicable': False,
         'verdict_ii_pass': False, 'consistent': True, 'diag_ball_certified': True,
         'diag_gamma_count': 98,
         'diag_lambda_count': 98, 'diag_probe_count': 40, 'diag_probe_rank': 25,
         'diag_probe_trace_max': '0.13654597462701065;0.13756722907202346;0.13833819996619848',
         'diag_probe_trace_min': '0.0005641689260238583;0.0016775698517910137;0.0030336307256371947',
         'diag_riesz_trace_max': '0.1366480943710486;0.1379745011745072;0.1392204252794416',
         'diag_riesz_trace_min': '1.3637243566335663e-08;2.068934504173342e-09;2.2526024030929673e-10',
         'diag_s_relation_residual': 0.0, 'diag_truncation_radius': 6.0},
        {'type': 'summary', 'lattice': 'psl2z', 'alpha': 7.5, 'z': '-0.3+1.4i', 'stab_order': 1,
         'covolume': COVOLUME, 'formal_degree': degree(7.5),
         'density_product': COVOLUME * degree(7.5), 'density_bound': 1.0, 'verdict_i_applicable': True,
         'verdict_i_pass': True, 'verdict_ii_applicable': False, 'verdict_ii_pass': False,
         'verdict_consistency': 'pass',
         'note': 'numerical mode analyses finite truncations; decisions are trend-based, not proofs'},
    ],
}

GOLDEN_SCAN_CSV = """\
n,subgroup_order,subgroup_gens,window_id,stab_order,lambda_size,is_frame,is_riesz,vol_times_d,bound,verdict_i,verdict_ii,max_identity_residual
2,1,"(0,0)",basis0,1,1,false,true,2,1,na,pass,0
2,1,"(0,0)",basis1,1,1,false,true,2,1,na,pass,0
2,1,"(0,0)",const,1,1,false,true,2,1,na,pass,2.2204460492503131e-16
2,1,"(0,0)",rand000,1,1,false,true,2,1,na,pass,1.5543122344752192e-15
2,1,"(0,0)",rand001,1,1,false,true,2,1,na,pass,4.4754520913118096e-16
2,1,"(0,0)",rand002,1,1,false,true,2,1,na,pass,2.2887833992611187e-16
2,1,"(0,0)",rand003,1,1,false,true,2,1,na,pass,5.5511151231257827e-17
2,2,"(0,1)",basis0,2,1,false,true,1,0.5,na,pass,1.1102230246251565e-16
2,2,"(0,1)",basis1,2,1,false,true,1,0.5,na,pass,1.1102230246251565e-16
2,2,"(0,1)",const,1,2,true,true,1,1,pass,pass,2.2283213296159824e-16
2,2,"(0,1)",rand000,1,2,true,true,1,1,pass,pass,4.3945649384728192e-16
2,2,"(0,1)",rand001,1,2,true,true,1,1,pass,pass,4.6491710734628411e-17
2,2,"(0,1)",rand002,1,2,true,true,1,1,pass,pass,2.2204460492503131e-16
2,2,"(0,1)",rand003,1,2,true,true,1,1,pass,pass,2.4457651149897629e-16
2,2,"(1,0)",basis0,1,2,true,true,1,1,pass,pass,0
2,2,"(1,0)",basis1,1,2,true,true,1,1,pass,pass,0
2,2,"(1,0)",const,2,1,false,true,1,0.5,na,pass,2.2204460492503131e-16
2,2,"(1,0)",rand000,1,2,true,true,1,1,pass,pass,1.8129703161681053e-16
2,2,"(1,0)",rand001,1,2,true,true,1,1,pass,pass,6.66220551209669e-16
2,2,"(1,0)",rand002,1,2,true,true,1,1,pass,pass,4.4723811048620001e-16
2,2,"(1,0)",rand003,1,2,true,true,1,1,pass,pass,3.3663688037178699e-16
2,2,"(1,1)",basis0,1,2,true,true,1,1,pass,pass,0
2,2,"(1,1)",basis1,1,2,true,true,1,1,pass,pass,0
2,2,"(1,1)",const,1,2,true,true,1,1,pass,pass,2.2283213296159824e-16
2,2,"(1,1)",rand000,1,2,true,true,1,1,pass,pass,6.6613381477509392e-16
2,2,"(1,1)",rand001,1,2,true,true,1,1,pass,pass,4.4408970892687271e-16
2,2,"(1,1)",rand002,1,2,true,true,1,1,pass,pass,5.5515009525860866e-16
2,2,"(1,1)",rand003,1,2,true,true,1,1,pass,pass,3.3306913904503552e-16
2,4,"(0,1)+(1,0)",basis0,2,2,true,true,0.5,0.5,pass,pass,1.1102230246251565e-16
2,4,"(0,1)+(1,0)",basis1,2,2,true,true,0.5,0.5,pass,pass,1.1102230246251565e-16
2,4,"(0,1)+(1,0)",const,2,2,true,true,0.5,0.5,pass,pass,2.7755575615628914e-16
2,4,"(0,1)+(1,0)",rand000,1,4,true,false,0.5,1,pass,na,1.1102230246251565e-16
2,4,"(0,1)+(1,0)",rand001,1,4,true,false,0.5,1,pass,na,1.1102230246251565e-16
2,4,"(0,1)+(1,0)",rand002,1,4,true,false,0.5,1,pass,na,0
2,4,"(0,1)+(1,0)",rand003,1,4,true,false,0.5,1,pass,na,2.2204460492503131e-16
3,1,"(0,0)",basis0,1,1,false,true,3,1,na,pass,0
3,1,"(0,0)",basis1,1,1,false,true,3,1,na,pass,0
3,1,"(0,0)",basis2,1,1,false,true,3,1,na,pass,0
3,1,"(0,0)",const,1,1,false,true,3,1,na,pass,1.1102230246251565e-16
3,1,"(0,0)",rand000,1,1,false,true,3,1,na,pass,5.5511151231257827e-17
3,1,"(0,0)",rand001,1,1,false,true,3,1,na,pass,5.5511151231257827e-16
3,1,"(0,0)",rand002,1,1,false,true,3,1,na,pass,5.5788016545937291e-16
3,1,"(0,0)",rand003,1,1,false,true,3,1,na,pass,1.1102230246251565e-16
3,3,"(0,1)",basis0,3,1,false,true,1,0.33333333333333331,na,pass,1.1102230246251565e-16
3,3,"(0,1)",basis1,3,1,false,true,1,0.33333333333333331,na,pass,1.4902278604321194e-16
3,3,"(0,1)",basis2,3,1,false,true,1,0.33333333333333331,na,pass,1.1102230246251565e-16
3,3,"(0,1)",const,1,3,true,true,1,1,pass,pass,6.6614093115196731e-16
3,3,"(0,1)",rand000,1,3,true,true,1,1,pass,pass,2.2265388125904352e-16
3,3,"(0,1)",rand001,1,3,true,true,1,1,pass,pass,2.4922537088474947e-16
3,3,"(0,1)",rand002,1,3,true,true,1,1,pass,pass,6.6680899455998706e-16
3,3,"(0,1)",rand003,1,3,true,true,1,1,pass,pass,8.9145678718709406e-16
3,3,"(1,0)",basis0,1,3,true,true,1,1,pass,pass,0
3,3,"(1,0)",basis1,1,3,true,true,1,1,pass,pass,0
3,3,"(1,0)",basis2,1,3,true,true,1,1,pass,pass,0
3,3,"(1,0)",const,3,1,false,true,1,0.33333333333333331,na,pass,1.6653345369377348e-16
3,3,"(1,0)",rand000,1,3,true,true,1,1,pass,pass,1.2033964713437055e-15
3,3,"(1,0)",rand001,1,3,true,true,1,1,pass,pass,2.3094885872148846e-15
3,3,"(1,0)",rand002,1,3,true,true,1,1,pass,pass,9.1578303372884483e-16
3,3,"(1,0)",rand003,1,3,true,true,1,1,pass,pass,9.3226612018807309e-16
3,3,"(1,1)",basis0,1,3,true,true,1,1,pass,pass,4.4408920985006262e-16
3,3,"(1,1)",basis1,1,3,true,true,1,1,pass,pass,3.9855213420921245e-18
3,3,"(1,1)",basis2,1,3,true,true,1,1,pass,pass,3.9855213420921245e-18
3,3,"(1,1)",const,1,3,true,true,1,1,pass,pass,6.6614093115196731e-16
3,3,"(1,1)",rand000,1,3,true,true,1,1,pass,pass,8.8817841970012523e-16
3,3,"(1,1)",rand001,1,3,true,true,1,1,pass,pass,9.3446689854155351e-16
3,3,"(1,1)",rand002,1,3,true,true,1,1,pass,pass,6.6834945944391913e-16
3,3,"(1,1)",rand003,1,3,true,true,1,1,pass,pass,9.640746477155847e-16
3,3,"(1,2)",basis0,1,3,true,true,1,1,pass,pass,3.9855213420921245e-18
3,3,"(1,2)",basis1,1,3,true,true,1,1,pass,pass,4.4408920985006262e-16
3,3,"(1,2)",basis2,1,3,true,true,1,1,pass,pass,4.4408920985006262e-16
3,3,"(1,2)",const,1,3,true,true,1,1,pass,pass,6.6613381477509392e-16
3,3,"(1,2)",rand000,1,3,true,true,1,1,pass,pass,1.110332384031309e-15
3,3,"(1,2)",rand001,1,3,true,true,1,1,pass,pass,1.3322676295501878e-15
3,3,"(1,2)",rand002,1,3,true,true,1,1,pass,pass,1.128762143524144e-15
3,3,"(1,2)",rand003,1,3,true,true,1,1,pass,pass,1.3322676295501878e-15
3,9,"(0,1)+(1,0)",basis0,3,3,true,true,0.33333333333333331,0.33333333333333331,pass,pass,1.1102230246251565e-16
3,9,"(0,1)+(1,0)",basis1,3,3,true,true,0.33333333333333331,0.33333333333333331,pass,pass,1.1102230246251565e-16
3,9,"(0,1)+(1,0)",basis2,3,3,true,true,0.33333333333333331,0.33333333333333331,pass,pass,1.1102230246251565e-16
3,9,"(0,1)+(1,0)",const,3,3,true,true,0.33333333333333331,0.33333333333333331,pass,pass,6.6614093115196731e-16
3,9,"(0,1)+(1,0)",rand000,1,9,true,false,0.33333333333333331,1,pass,na,5.5511151231257827e-17
3,9,"(0,1)+(1,0)",rand001,1,9,true,false,0.33333333333333331,1,pass,na,7.1054273576010019e-15
3,9,"(0,1)+(1,0)",rand002,1,9,true,false,0.33333333333333331,1,pass,na,1.1102230246251565e-16
3,9,"(0,1)+(1,0)",rand003,1,9,true,false,0.33333333333333331,1,pass,na,1.1102230246251565e-16
"""


@pytest.mark.parametrize(
    "z, alpha, order", POINTS, ids=[f"z{k}-{alpha}-{order}" for k, (_, alpha, order) in enumerate(POINTS)]
)
def test_bergman_arrays_match_per_pair_oracle(z, alpha, order):
    ball = fuchsian.ball_enumerate(fuchsian.psl2z(), 6.0)
    kernel = np.array([z])
    orbit = act(ball.elements, z)
    members, _ = bergman.projective_stabilizer_kernel(ball, z, alpha, orbit)
    assert len(members) == order
    probes = bergman.probe_kernels(z, 40)
    # Gram, probe matrix, probe Gram, overlap row and compressed synthesis
    for left, right in ((orbit, orbit), (probes, orbit), (probes, probes), (orbit, kernel), (orbit, probes)):
        array = bergman.kernel_gram(left, right, alpha)
        oracle = kernel_cross_oracle(left, right, alpha)
        assert np.all(np.abs(array - oracle) <= ORACLE_RTOL * np.abs(oracle))
    B = bergman.kernel_gram(orbit, probes, alpha).T
    B_oracle = kernel_cross_oracle(orbit, probes, alpha).T
    M, M_oracle = B @ B.conj().T, B_oracle @ B_oracle.conj().T
    assert np.linalg.norm(M - M_oracle) <= ORACLE_RTOL * np.linalg.norm(M_oracle)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_finite_arrays_match_per_pair_oracle(n):
    rng = np.random.default_rng(n)
    full = max(finite_gabor.subgroup_enumerate(n), key=lambda s: s.order)
    windows = np.array([rng.standard_normal(n) + 1j * rng.standard_normal(n), np.eye(n)[:, 0]])
    for window, V in zip(windows, finite_gabor.orbit_system(windows, full.elements)):
        # the gather table reproduces the one-vector shift bit for bit
        shifted = np.column_stack([pi_shift(a, b, window) for a, b in full.elements])
        assert np.array_equal(V, shifted)
        G, G_oracle = vector_gram(V), vector_gram_oracle(V)
        assert np.max(np.abs(G - G_oracle)) <= ORACLE_RTOL * np.max(np.abs(G_oracle))
        S = frames.frame_operator(V)
        S_oracle = sum(np.outer(V[:, k], V[:, k].conj()) for k in range(V.shape[1]))
        assert np.max(np.abs(S - S_oracle)) <= ORACLE_RTOL * np.max(np.abs(S_oracle))


def _floats(value) -> list[float]:
    return [float(part) for part in str(value).split(";")]


def _tolerances(key: str, record: dict) -> list[float]:
    """Absolute tolerance per value of a float field; a trace holds one value per step."""
    probe_scale = _floats(record["diag_probe_trace_max"])
    riesz_scale = _floats(record["diag_riesz_trace_max"])
    if key == "a_est":
        probe_scale = probe_scale[-1:]
    if key in ("a_est", "diag_probe_trace_min"):
        return [
            min(PROBE_MIN_TOL * s, PROBE_MIN_RTOL * abs(v))
            for s, v in zip(probe_scale, _floats(record[key]))
        ]
    if key in ("b_est", "diag_probe_trace_max"):
        return [PROBE_MAX_RTOL * abs(v) for v in _floats(record[key])]
    if key == "riesz_min":
        return [FLOOR_TOL * riesz_scale[-1]]
    if key == "diag_riesz_trace_min":
        return [FLOOR_TOL * s for s in riesz_scale]
    if key == "diag_s_relation_residual":
        return [FLOOR_TOL]
    return [FLOAT_RTOL * abs(v) for v in _floats(record[key])]


def _assert_matches_golden(got: dict, want: dict):
    assert list(got) == list(want)
    for key, expected in want.items():
        if not (isinstance(expected, float) or "_trace_" in key):
            assert got[key] == expected, key
            continue
        got_values, want_values = _floats(got[key]), _floats(expected)
        assert len(got_values) == len(want_values), key
        for g, w, tol in zip(got_values, want_values, _tolerances(key, want)):
            assert abs(g - w) <= tol, f"{key}: {g!r} vs {w!r}"


@pytest.mark.parametrize("argv", list(GOLDEN_DENSITY), ids=["i", "rho", "generic"])
def test_bergman_density_matches_golden(capsys, argv):
    code = cli.main(["bergman-density", *argv, "--ball", "6", "--format", "json"])
    assert code == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    golden = GOLDEN_DENSITY[argv]
    assert len(records) == len(golden)
    for got, want in zip(records[:-1], golden[:-1]):
        _assert_matches_golden(got, want)
    summary, want = records[-1], golden[-1]
    assert list(summary) == list(want)
    for key, expected in want.items():
        if isinstance(expected, float):
            assert abs(summary[key] - expected) <= FLOAT_RTOL * abs(expected), key
        else:
            assert summary[key] == expected, key


@pytest.mark.parametrize("argv", list(GOLDEN_DENSITY), ids=["i", "rho", "generic"])
def test_density_analysis_reports_are_the_cli_records(capsys, argv):
    # the library entry and the command give the same reports, field for field
    code = cli.main(["bergman-density", *argv, "--ball", "6", "--format", "json"])
    assert code == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    args = cli.build_parser().parse_args(["bergman-density", *argv])
    reports = bergman.density_analysis(fuchsian.psl2z(), commands.parse_point(args.z), args.alpha, 6.0)
    got = [list({"type": "frame_report", **r.to_flat_dict()}.items()) for r in reports]
    assert got == [list(record.items()) for record in records[:-1]]


def test_finite_scan_matches_golden(capsys):
    code = cli.main(
        ["finite-scan", "--n-max", "3", "--windows", "4", "--seed", "7", "--format", "csv"]
    )
    assert code == 0
    got = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    want = list(csv.reader(io.StringIO(GOLDEN_SCAN_CSV)))
    assert got[0] == want[0]
    assert len(got) == len(want)
    residual = want[0].index("max_identity_residual")
    floats = {want[0].index("vol_times_d"), want[0].index("bound")}
    for got_row, want_row in zip(got[1:], want[1:]):
        for k, (g, w) in enumerate(zip(got_row, want_row)):
            if k == residual:
                assert abs(float(g) - float(w)) <= FLOOR_TOL
            elif k in floats:
                assert abs(float(g) - float(w)) <= FLOAT_RTOL * abs(float(w))
            else:
                assert g == w


RHO = complex(0.5, 0.8660254037844386)
GENERIC = complex(0.3, 1.5)
BASES = [1j, RHO, GENERIC]
BASE_IDS = ["i", "rho", "generic"]
HALFCONT = fuchsian.LatticeSpec(
    name="halfcont",
    generators=((1.0, 2.0, 0.0, 1.0), (0.0, -1.0, 1.0, 0.0)),
    covolume=2.0 * math.pi,
)


def _bits(values) -> bytes:
    return np.ascontiguousarray(values).tobytes()


@pytest.mark.parametrize("alpha", [2.0, 2.5, 3.0])
@pytest.mark.parametrize("base", BASES, ids=BASE_IDS)
def test_formal_degree_matches_meshgrid_oracle(alpha, base):
    # the quadrature's rectangle is translated and dilated to the base point,
    # so it has the same error at every base: the mass beyond its x-range,
    # 6.9e-5 relative at alpha = 2 and 1.0e-6 at alpha = 3
    exact = bergman.formal_degree_closed_form(alpha)
    at_base = oracles.formal_degree_by_meshgrid(alpha, base)["formal_degree"]
    at_i = oracles.formal_degree_by_meshgrid(alpha)["formal_degree"]
    assert abs(at_base - exact) <= 1e-4 * exact
    assert abs(at_base - at_i) <= 1e-11 * exact


def test_formal_degree_on_a_custom_grid_matches_meshgrid_oracle():
    # on a coarse grid the discretisation error dominates, and the
    # mesh-halving estimate bounds it: 1.8e-3 off, estimated 2.7e-2
    diag = oracles.formal_degree_by_meshgrid(2.5, GENERIC, nx=300, nt=200)
    exact = bergman.formal_degree_closed_form(2.5)
    assert diag["node_count"] == 300 * 200
    assert abs(diag["formal_degree"] - exact) <= diag["est_rel_error"] * exact


@pytest.mark.parametrize("bound", [math.sqrt(2.0), 3.0, 6.0, 13.0, 17.0])
def test_integer_ball_matches_loop_oracle(bound):
    rows = fuchsian.brute_force_integer_ball(bound)
    assert _bits(rows) == _bits(np.array(oracles.integer_ball_by_loops(bound)))


BALL_CASES = [(fuchsian.psl2z(), bound) for bound in (6.0, 13.0, 17.0)] + [(HALFCONT, 3.0), (HALFCONT, 9.0)]


@pytest.mark.parametrize("spec, bound", BALL_CASES, ids=lambda v: getattr(v, "name", str(v)))
def test_ball_stabilizers_and_cosets_match_scalar_oracle(spec, bound):
    ball = fuchsian.ball_enumerate(spec, bound)
    rows, certified = oracles.ball_by_scalar_bfs(spec, bound)
    # same elements, bit for bit, in the same order
    assert _bits(ball.elements) == _bits(np.array(rows))
    assert ball.closure_certified == certified
    for z in BASES:
        for tol in (None, 1e-4):
            members = oracles.point_stabilizer(ball, z, tol)
            oracle_tol = rounding_bound(z) if tol is None else tol
            assert members.tolist() == oracles.stabilizer_by_scalars(rows, z, oracle_tol)
        cosets = fuchsian.coset_representatives(ball, members)
        rep_index, tile = oracles.cosets_by_loop(rows, members.tolist())
        assert cosets.rep_index.tolist() == rep_index
        assert cosets.tile.tolist() == tile


@pytest.mark.parametrize("alpha", [2.0, 2.5, 3.0])
@pytest.mark.parametrize("z", BASES, ids=BASE_IDS)
def test_orbit_matches_scalar_oracle(alpha, z):
    # vectorised complex division is not bit-equal to the scalar one, so the
    # array action's points match the per-row ones to their rounding bound;
    # the points are those of the kernel orbit at every alpha
    ball = fuchsian.ball_enumerate(fuchsian.psl2z(), 13.0)
    orbit = act(ball.elements, z)
    points = oracles.orbit_by_scalars(ball.elements.tolist(), z)
    assert np.all(distance(orbit, points) <= rounding_bound(points))
