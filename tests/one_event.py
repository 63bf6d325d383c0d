"""The evaluation kernel at a single event.

Every evaluator in emforms takes an (N, 4) event array. Each helper here
calls it on the one-row array of ``event`` and returns plain floats: a
component dict, a maximum, a field value, partial derivatives, or the
interface normal and normal speed.
"""

import numpy as np

from emforms import forms, junction


def _row(event) -> np.ndarray:
    return np.array([event], dtype=float)


def evaluate(a, event) -> dict:
    return {idx: float(v[0]) for idx, v in forms.evaluate(a, _row(event)).items()}


def component_max(a, event) -> float:
    return float(forms.component_max(a, _row(event))[0])


def value(field, event) -> float:
    return float(field.eval(_row(event))[0])


def partial(field, axis: int, event) -> float:
    return value(field.partial_field(axis), event)


def partials(field, event) -> tuple[float, float, float, float]:
    return tuple(partial(field, axis, event) for axis in range(4))


def interface_normal_velocity(iface, frame, g, event):
    normal, v_n = junction.interface_normal_velocity(iface, frame, g, _row(event))
    return tuple(float(n[0]) for n in normal), float(v_n[0])
