"""The covariant junction check of raw forms.

``covariant_jump_residual`` evaluates the junction forms of a
``FieldSolution``; :func:`jump_residual` wraps four raw forms in a
solution that holds them, with ``iface`` as its one interface.
"""

from emforms.junction import covariant_jump_residual
from emforms.solutions import FieldSolution


def solution_of(f_in, f_out, g_in, g_out, iface, chart) -> FieldSolution:
    return FieldSolution(
        chart=chart,
        f_in=f_in,
        g_in=g_in,
        f_out=f_out,
        g_out=g_out,
        interfaces=(iface,),
        order="exact",
        regions=(),
        length_scale=1.0,
    )


def jump_residual(f_in, f_out, g_in, g_out, iface, chart, samples):
    return covariant_jump_residual(solution_of(f_in, f_out, g_in, g_out, iface, chart), iface, samples)
