"""Control cost vs information rate for an unstable scalar plant.

Shows the data-rate-theorem threshold, the decay of the rate-limited LQR
cost toward the full-information optimum, and a Monte-Carlo simulation of a
uniformly quantized control loop sitting above the analytic curve.
"""
import math
from pathlib import Path

import numpy as np

from satloop import Plant, RateCostModel, intrinsic_entropy_rate, lqr_cost
from satloop import svgplot

OUT = Path(__file__).resolve().parent / "output"
OUT.mkdir(exist_ok=True)

plant = Plant(a=2.0, b=1.0, w_cov=1.0, q=1.0, r_u=1.0)
period_s = 1.0  # one control step per second
model = RateCostModel.from_plant(plant)

print("plant: x' = 2x + u + w  (one unstable mode)")
print(f"intrinsic entropy rate: {intrinsic_entropy_rate(plant, period_s):.1f} bit/s "
      f"-> stabilization needs > 1 bit/step")
print(f"full-information LQR optimum j_ideal = {model.j_ideal:.6f}")
print()

rates = np.linspace(0.5, 8.0, 31)
curve = []
print(f"{'R bits/step':>11} {'J(R)':>12}")
for rate in rates:
    cost = lqr_cost(model, float(rate))
    if cost == math.inf:
        print(f"{rate:11.2f} {'unstable':>12}")
        curve.append(float("nan"))
    else:
        print(f"{rate:11.2f} {cost:12.6f}")
        curve.append(cost)

# crude uniform quantizer: empirical cost must sit above the analytic curve
def simulate(rate_bits, steps=40_000, seed=7, span=40.0):
    rng = np.random.default_rng(seed)
    gain = model.lqr_gain()
    levels = 2 ** rate_bits
    delta = 2.0 * span / levels
    x, acc = 0.0, 0.0
    for w in rng.normal(0.0, 1.0, steps):
        idx = min(max(math.floor((x + span) / delta), 0), levels - 1)
        u = -gain * (-span + (idx + 0.5) * delta)
        acc += x * x + u * u
        x = 2.0 * x + u + w
    return acc / steps

print()
print("uniform-quantizer Monte Carlo (40k steps) vs analytic lower bound:")
for rate in (2, 4, 8):
    emp = simulate(rate)
    ana = lqr_cost(model, float(rate))
    print(f"  R={rate}: empirical {emp:10.4f} >= analytic {ana:8.4f}")

svg = svgplot.line_chart(list(rates), [("J(R)", curve)],
                         "Rate-limited LQR cost (a = 2)",
                         "rate (bits/step)", "cost")
(OUT / "rate_cost.svg").write_text(svg)
print(f"\nwrote {OUT / 'rate_cost.svg'}")
