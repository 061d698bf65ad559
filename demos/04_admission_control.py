"""Airtime admission: keep admitting calls until a domain saturates.

One shared contention domain over a three-hop chain of 2 Mb/s links.
Each voice call books airtime on every domain its path touches, once per
link traversal, so multi-hop calls cost more than single-hop ones. The
ledger admits until the 0.85 utilization ceiling would be crossed, then
reports the bottleneck.
"""

from meshsim import AdmissionLedger, FlowSpec, QosParams, Reject, build_topology
from meshsim.topology import NodeSpec, RadioSpec


def main():
    radio = RadioSpec(channel=1, nominal_rate=2e6, tx_range=120.0,
                      cs_range=1000.0)
    nodes = [NodeSpec(i, (i * 100.0, 0.0), (radio,), is_server=(i == 0))
             for i in range(4)]
    topo = build_topology(nodes)
    ledger = AdmissionLedger(topo, QosParams(u_max=0.85, goodput_factor=0.8))

    path = topo.links                     # the full 0 -> 3 chain
    per_link = 64000.0 / (2e6 * 0.8)
    print(f"voice demand 64 kb/s, per-link airtime {per_link:.3f},")
    print(f"3-hop path in one domain costs {3 * per_link:.3f} per call\n")

    i = 0
    while True:
        i += 1
        spec = FlowSpec(f"call{i}", 0, 3, 64000.0, 1280.0, "voice")
        decision = ledger.admit(spec, path)
        if isinstance(decision, Reject):
            print(f"call{i}: REJECTED, domain anchor link "
                  f"{decision.bottleneck} has residual "
                  f"{decision.residual:.3f} < needed {decision.needed:.3f}")
            break
        worst = max(ledger.committed.values())
        print(f"call{i}: admitted, busiest domain now {worst:.3f}")

    print(f"\nreleasing call1 frees its share exactly:")
    ledger.release("call1")
    print(f"busiest domain after release: {max(ledger.committed.values()):.3f}")
    retry = ledger.admit(FlowSpec("late", 0, 3, 64000.0, 1280.0, "voice"), path)
    print(f"late call now {'admitted' if not isinstance(retry, Reject) else 'rejected'}")


if __name__ == "__main__":
    main()
