"""Exact mean waiting times of a polling system with Poisson arrivals, for
tests only.

The method is Fuhrmann & Cooper's (Operations Research 33, 1985); Winands,
Adan & van Houtum's mean value analysis (Queueing Systems 54, 2006) reaches
the same values another way.  With Poisson arrivals a visit time, given the
periods before it, is compound Poisson:

* exhaustive, given the intervisit time I (the 2N - 1 periods since the
  queue's last visit ended): E[V_i | I] = rho_i I / (1 - rho_i) and
  Var[V_i | I] = lambda_i E[B_i^2] I / (1 - rho_i)^3;
* gated, given the cycle C (the 2N periods since the queue's last visit
  began): E[V_i | C] = rho_i C and Var[V_i | C] = lambda_i E[B_i^2] C.

Switch-over times are independent of everything.  So a window holding the
latest of each period, V_0 S_0 ... V_{N-1} S_{N-1}, moves by one affine map
per period, and by total variance its covariance moves linearly too.  The
stationary mean window comes from one 2N x 2N solve of the cycle's composed
map, and its covariance from one discrete Lyapunov equation
P = A P A^T + Q, solved in vectorised form (4N^2 unknowns).  From the
window at the start of each visit:

* exhaustive: W_i = E[I^2] / (2 E[I]) + lambda_i E[B_i^2] / (2 (1 - rho_i));
* gated: W_i = (1 + rho_i) E[C^2] / (2 E[C]).
"""

from __future__ import annotations

import numpy as np

from pollwait.errors import InvalidInput
from pollwait.model import Discipline, SystemSpec


def exact_mean_wait(spec: SystemSpec) -> tuple[float, ...]:
    """The exact mean waiting time of every queue of `spec`.

    Raises `InvalidInput` unless every ``scv_interarrival`` is 1, the only
    arrivals this method is exact for.
    """
    if any(q.scv_interarrival != 1.0 for q in spec.queues):
        raise InvalidInput(
            "exact_mean_wait needs Poisson arrivals, but the interarrival "
            f"scvs are {[q.scv_interarrival for q in spec.queues]}"
        )
    exhaustive = spec.discipline is Discipline.EXHAUSTIVE
    size = 2 * spec.n
    eye = np.eye(size)
    # One step per period, in time order: the window's map x -> A x + b,
    # and the new period's variance given the window, u . x + d.  Per
    # queue, `totals` sums the window into I (exhaustive) or C (gated) at
    # the start of its visit, and `residual_terms` holds the factor of
    # E[X^2] / (2 E[X]) in its wait and the term added to it.
    steps = []
    totals = []
    residual_terms = []
    for i, q in enumerate(spec.queues):
        rate = spec.rho / q.mean_interarrival_at_saturation
        load = rate * q.mean_service
        second = rate * (1.0 + q.scv_service) * q.mean_service**2
        total = np.ones(size)
        if exhaustive:
            total[2 * i] = 0.0
            gain = load / (1.0 - load)
            spread = second / (1.0 - load) ** 3
            residual_terms.append((1.0, second / (2.0 * (1.0 - load))))
        else:
            gain, spread = load, second
            residual_terms.append((1.0 + load, 0.0))
        totals.append(total)
        visit = eye.copy()
        visit[2 * i] = gain * total
        steps.append((visit, np.zeros(size), spread * total, 0.0))
        switch = eye.copy()
        switch[2 * i + 1] = 0.0
        constant = np.zeros(size)
        constant[2 * i + 1] = q.mean_switchover
        variance = q.scv_switchover * q.mean_switchover**2
        steps.append((switch, constant, np.zeros(size), variance))

    cycle, shift = eye, np.zeros(size)
    for a, b, _, _ in steps:
        cycle, shift = a @ cycle, a @ shift + b
    mean = np.linalg.solve(eye - cycle, shift)

    # The means before each period, and the covariance one cycle adds.
    means, noises = [], []
    added = np.zeros((size, size))
    for p, (a, b, u, d) in enumerate(steps):
        means.append(mean)
        noises.append(u @ mean + d)
        added = a @ added @ a.T
        added[p, p] += noises[p]
        mean = a @ mean + b
    lyapunov = np.eye(size * size) - np.kron(cycle, cycle)
    cov = np.linalg.solve(lyapunov, added.ravel()).reshape(size, size)

    waits = []
    for p, (a, _, _, _) in enumerate(steps):
        if p % 2 == 0:
            total = totals[p // 2]
            factor, service_term = residual_terms[p // 2]
            first = total @ means[p]
            square = total @ cov @ total + first * first
            waits.append(factor * square / (2.0 * first) + service_term)
        cov = a @ cov @ a.T
        cov[p, p] += noises[p]
    return tuple(float(w) for w in waits)
