"""Hard-margin training on small linear datasets.

The trainer solves a linear program that minimizes h, the ratio between the
largest and smallest signed margin y_i * (w.x_i + b) over the training set,
while every margin stays >= 1.  Small h means the samples sit in a narrow
band of margins: the classifier is as simple as the data allows.
"""

import numpy as np

from mcm import TrainConfig, capacity_report, decision_many, radius_margin_ratio, train

# two points, one per class, equidistant from the origin: the classic
# sanity check where the optimum is w=1, b=0 and every margin equals 1
X = np.array([[1.0], [-1.0]])
y = np.array([1.0, -1.0])
result = train(X, y, TrainConfig("hard-linear"))
model = result.model
print("symmetric pair:")
print(f"  w = {model.w}, b = {model.b:.6f}")
print(f"  h = {model.h:.6f}  (1.0 exactly: both margins tie)")

# a separable 2-d dataset; margins now spread and h > 1
X = np.array([
    [0.0, 0.0], [1.0, 0.4], [0.3, 1.1],
    [2.5, 2.0], [3.2, 1.4], [2.8, 3.0],
])
y = np.array([-1.0, -1.0, -1.0, 1.0, 1.0, 1.0])
result = train(X, y, TrainConfig("hard-linear"))
model = result.model
margins = y * decision_many(model, X)
print("\nsix-point dataset:")
print(f"  w = {np.round(model.w, 4)}, b = {model.b:.4f}")
print(f"  margins = {np.round(margins, 4)}")
print(f"  smallest margin = {margins.min():.6f}  (the >= 1 constraint is tight)")
print(f"  h = {model.h:.4f} = largest/smallest margin")

report = capacity_report(model, X, y)
print(f"  h^2 = {report.h_squared:.4f}  (the capacity bound the LP minimized)")
print(f"  R/d = {radius_margin_ratio(X, model.w, model.b):.4f}  (geometric ceiling for h)")

print(f"\nLP solved in {result.lp_iterations} simplex iterations, "
      f"{result.seconds * 1e3:.2f} ms")
