"""The ELP link cost and what each of its three factors contributes.

Cost = loss ratio term x interference term x capacity term. The loss term
weights the data direction more heavily than the ACK direction, the
interference term grows with the contention domain's busy fraction, and
the capacity term makes slow links expensive. Hop count treats all of
these links as equal, which is exactly its problem.
"""

from meshsim import ElpParams, elp_link

params = ElpParams(w=0.75, ref_rate=12e6)

print("link variants, one factor degraded at a time:")
cases = [
    # name                     d_f  d_r  busy  capacity
    ("clean, fast, idle     ", 1.0, 1.0, 0.0, 12e6),
    ("50% forward loss      ", 0.5, 1.0, 0.0, 12e6),
    ("50% reverse loss      ", 1.0, 0.5, 0.0, 12e6),
    ("half the channel busy ", 1.0, 1.0, 0.5, 12e6),
    ("half-rate radio       ", 1.0, 1.0, 0.0, 6e6),
    ("all three at once     ", 0.5, 1.0, 0.5, 6e6),
]
for name, d_f, d_r, busy, capacity in cases:
    print(f"  {name} cost {elp_link(d_f, d_r, busy, capacity, params):7.3f}   "
          f"hop count 1")

print("\nforward loss hurts more than reverse loss: data frames need many")
print("retransmissions, ACKs are small. The asymmetry exponent w=0.75")
print("encodes that.")

# path comparison the routing layer faces constantly: a lossy shortcut
# against a clean dogleg; a path costs the sum of its link costs
shortcut = elp_link(0.5, 1.0, 0.5, 6e6, params)
clean = elp_link(0.98, 0.98, 0.0, 12e6, params)
print(f"\n1-hop lossy shortcut : cost {shortcut:.3f}")
print(f"2-hop clean path     : cost {clean + clean:.3f}")
print("ELP picks the 2-hop path; hop count would pick the shortcut (1 < 2)")

# link estimation in motion: each HELLO interval the router folds whether it
# heard the neighbor (x = 1 or 0) into the reverse delivery ratio, as
# d_r = (1 - alpha) * d_r + alpha * x; the neighbor reports it back as our d_f
alpha, d_r = 0.1, 1.0
print(f"\nHELLO smoothing (alpha {alpha}), link degrades to 50% halfway:")
for i in range(40):
    x = 1.0 if i < 20 or i % 2 == 0 else 0.0
    d_r = (1.0 - alpha) * d_r + alpha * x
    if i % 10 == 9:
        print(f"  after HELLO {i + 1:2d}: d_r = {d_r:.3f}")
