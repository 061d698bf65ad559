"""Server-relayed messaging end to end on a live three-node mesh.

A text message travels client -> mesh -> server -> mesh -> client with a
bounded stop-and-wait on each leg. Messages for offline recipients wait
in the server's queue and flush the moment the recipient reappears. File
transfers reuse the same machinery chunk by chunk.
"""

from meshsim.harness import Simulation
from meshsim.scenario import Scenario

SCN = Scenario.from_dict({
    "topology": {"nodes": [
        {"id": i, "position": [i * 10.0, 0.0], "is_server": i == 0,
         "radios": [{"channel": 1, "nominal_rate": 12e6,
                     "tx_range": 15.0, "cs_range": 80.0}]}
        for i in range(3)]},
    "workload": {"clients": [{"id": "alice", "attach": 1},
                             {"id": "bob", "attach": 2}]},
    "run": {"duration": 120.0, "warmup": 5.0, "seeds": [1]},
}, name="messaging-demo")


def main():
    sim = Simulation(SCN, seed=1)
    eng = sim.engine
    alice, bob = sim.clients["alice"], sim.clients["bob"]
    server = sim.server

    eng.run_until(10.0)                  # registration + route convergence

    print("-- online SMS --")
    alice.send_sms("bob")
    eng.run_until(12.0)
    print(f"bob's inbox: {[m.msg_id for m in bob.inbox]}")
    print(f"alice's notifications: {alice.notifications}")

    print("\n-- SMS to an offline recipient --")
    server.sessions["bob"].status = "offline"
    msg = alice.send_sms("bob")
    eng.run_until(14.0)                  # before bob's next beacon at 15.2
    state = server.deliveries[msg.msg_id]
    print(f"delivery state while bob is away: {state.phase}")
    server.presence_update("bob", eng.now)   # bob comes back
    eng.run_until(16.0)
    print(f"after bob returns: {state.phase}, inbox size {len(bob.inbox)}")

    print("\n-- chunked file transfer, 40 KB in 8 KB chunks --")
    done = []
    xfer = alice.send_file("bob", 320_000, 64_000,
                           on_done=lambda ok, t: done.append((ok, t)))
    eng.run_until(60.0)
    print(f"status {xfer.status}, {xfer.delivered_chunks}/{xfer.n_chunks} "
          f"chunks, finished at t={done[0][1]:.2f}s")

    print("\n-- presence expiry --")
    server.sessions["alice"].last_seen = eng.now - 30.0
    gone = server.expire_stale(eng.now)
    print(f"expired after 30 s of silence: {gone}")


if __name__ == "__main__":
    main()
