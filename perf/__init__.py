"""Two-clock benchmark spine for the S-QUERY reproduction.

Host time (``time.perf_counter`` around the calls this package makes)
and virtual time (``env.sim.now`` differences and the system's public
counters) are both reported; every metric name says which clock it is
on.  See ``perf/README.md``.
"""
