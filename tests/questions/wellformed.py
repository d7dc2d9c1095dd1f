"""One well-formed value for every param of every registered question,
on ``repro.synth.special.net1(2)``. The registry tests hold this table
to the registry (a new question or param fails them until it is listed
here) and derive every malformed request from it."""

PACKET = {
    "src_ip": "172.19.0.10", "dst_ip": "172.19.1.10",
    "ip_protocol": "tcp", "dst_port": 80,
}

WELLFORMED = {
    "routes": {"node": "net1-core0"},
    "reachability": {
        "headerspace": {"dst": "172.19.1.0/24", "protocols": ["tcp"], "dst_ports": [80]},
        "sources": [["net1-spur0", "Vlan10"], "net1-core0"],
        "scoped": False,
    },
    "traceroute": {"packet": PACKET, "node": "net1-spur0", "interface": "Vlan10"},
    "explain_route": {"node": "net1-core1", "prefix": "10.16.0.4/30"},
    "route_diff": {"candidate": "lab"},
    "sweep": {
        "k": 1,
        "kinds": ["link"],
        "property": {
            "src_node": "net1-spur0", "src_interface": "Vlan10",
            "dst_ip": "172.19.1.10", "src_ip": "172.19.0.10",
            "ip_protocol": 6, "dst_port": 80,
        },
        "limit": 4,
        "max_elements": 2,
    },
    "test_filter": {"node": "net1-core0", "filter": "SPUR_FILTER", "packet": PACKET},
    "undefined_references": {},
    "unused_structures": {},
    "duplicate_ips": {},
    "parse_warnings": {},
    "lint": {"lintconfig": {"disable": ["unused-structure"]}},
    "sleep": {"seconds": 0.0},
}

#: ``(question, param, params)``: the well-formed params with the
#: hostname ``param`` names replaced by one the snapshot does not have.
GHOST_HOSTS = [
    ("routes", "node", {"node": "ghost"}),
    ("reachability", "sources", {"sources": [["ghost", None]]}),
    ("reachability", "sources", {"sources": ["net1-core0", "ghost"]}),
    ("traceroute", "node", {**WELLFORMED["traceroute"], "node": "ghost"}),
    ("explain_route", "node", {**WELLFORMED["explain_route"], "node": "ghost"}),
    ("test_filter", "node", {**WELLFORMED["test_filter"], "node": "ghost"}),
    ("sweep", "property", {
        "property": {**WELLFORMED["sweep"]["property"], "src_node": "ghost"},
    }),
]

#: Likewise with an interface name replaced by one its (real) device
#: does not have.
GHOST_INTERFACES = [
    ("reachability", "sources", {"sources": [["net1-core0", "Ghost0/9"]]}),
    ("reachability", "sources", {
        "sources": ["net1-core0", ["net1-spur0", "Ghost0/9"]],
    }),
    ("traceroute", "interface", {
        **WELLFORMED["traceroute"], "interface": "Ghost0/9",
    }),
    ("sweep", "property", {
        "property": {
            **WELLFORMED["sweep"]["property"], "src_interface": "Ghost0/9",
        },
    }),
]

#: Likewise with a filter name its (real) device does not have: one no
#: device has, and one another device has.
GHOST_FILTERS = [
    ("test_filter", "filter", {**WELLFORMED["test_filter"], "filter": "NO_SUCH_ACL"}),
    ("test_filter", "filter", {**WELLFORMED["test_filter"], "node": "net1-core1"}),
]

#: Likewise with a lint rule id no rule declares, in each place one goes.
GHOST_RULES = [
    ("lint", "lintconfig", {"lintconfig": {"rules": ["no-such-rule"]}}),
    ("lint", "lintconfig", {"lintconfig": {"disable": ["no-such-rule"]}}),
    ("lint", "lintconfig", {
        "lintconfig": {"severity": {"no-such-rule": "error"}},
    }),
]

#: ``(question, param)``: a param the question no longer declares, so
#: that every value of it is an unknown key.
RETIRED = [("sweep", "prune")]
