#!/usr/bin/env python3
"""Data-warehouse integration: checking constraints on a nested view.

The paper's introduction motivates NFDs with materialized views over
complex databases: "knowing how dependencies are carried into this
complex view could eliminate expensive checking".  This script plays the
scenario out:

1. two source stores with their own keys and catalogue constraints;
2. a warehouse view that nests each customer's orders;
3. the view's constraints, checked after a refresh — with witnesses for
   a source inconsistency that the merge exposes;
4. FD carryover: the flat sources' FDs translated to NFDs over the
   nested view via the nest transformation, and verified.

Run:  python examples/warehouse_integration.py
"""

from collections import defaultdict

from repro import ClosureEngine, Instance, NFD, parse_nfds, parse_schema
from repro.analysis import fds_after_nest
from repro.inference import FD
from repro.io import render_instance
from repro.nfd import find_violations, satisfies_all

schema = parse_schema("""
    StoreA = {<order_id: int, customer: string,
               lines: {<sku: string, description: string, qty: int>}>} ;
    StoreB = {<order_id: int, customer: string,
               lines: {<sku: string, description: string, qty: int>}>} ;
    Warehouse = {<customer: string,
                  orders: {<order_id: int,
                            lines: {<sku: string, description: string,
                                     qty: int>}>}>}
""")

sigma = parse_nfds("""
    StoreA:[order_id -> customer]
    StoreA:[order_id -> lines]
    StoreB:[order_id -> customer]
    StoreB:[order_id -> lines]
    StoreA:[lines:sku -> lines:description]
    StoreB:[lines:sku -> lines:description]
    Warehouse:[orders:order_id -> orders:lines]
    Warehouse:[orders:lines:sku -> orders:lines:description]
    Warehouse:orders:lines:[sku -> qty]
""")


def refresh_warehouse(store_a_rows, store_b_rows):
    """The materialized view: group all orders by customer."""
    orders = defaultdict(list)
    for row in store_a_rows + store_b_rows:
        orders[row["customer"]].append(
            {"order_id": row["order_id"], "lines": row["lines"]})
    return [{"customer": customer, "orders": customer_orders}
            for customer, customer_orders in sorted(orders.items())]


# ---------------------------------------------------------------------------
# 1. Consistent sources merge cleanly.
# ---------------------------------------------------------------------------
store_a = [
    {"order_id": 1, "customer": "ada",
     "lines": [{"sku": "widget", "description": "Widget", "qty": 2}]},
    {"order_id": 3, "customer": "bob",
     "lines": [{"sku": "gadget", "description": "Gadget", "qty": 1}]},
]
store_b = [
    {"order_id": 2, "customer": "ada",
     "lines": [{"sku": "widget", "description": "Widget", "qty": 5}]},
]
instance = Instance(schema, {
    "StoreA": store_a,
    "StoreB": store_b,
    "Warehouse": refresh_warehouse(store_a, store_b),
})
print(render_instance(instance))
print()
print("after refresh, all constraints hold:",
      satisfies_all(instance, sigma))

# ---------------------------------------------------------------------------
# 2. A source drift: StoreB renames the widget.  Each source is still
#    internally consistent — only the merged view exposes the clash.
# ---------------------------------------------------------------------------
store_b_drifted = [
    {"order_id": 2, "customer": "ada",
     "lines": [{"sku": "widget", "description": "Gizmo", "qty": 5}]},
]
drifted = Instance(schema, {
    "StoreA": store_a,
    "StoreB": store_b_drifted,
    "Warehouse": refresh_warehouse(store_a, store_b_drifted),
})
per_source = [nfd for nfd in sigma if nfd.relation != "Warehouse"]
print()
print("sources still individually consistent:",
      satisfies_all(drifted, per_source))
print("warehouse constraints after refresh:")
for nfd in sigma:
    if nfd.relation != "Warehouse":
        continue
    for violation in find_violations(drifted, nfd):
        print(violation.describe())

# ---------------------------------------------------------------------------
# 3. What the view's declared constraints imply — checked once, not per
#    refresh.
# ---------------------------------------------------------------------------
engine = ClosureEngine(schema, sigma + parse_nfds(
    "Warehouse:[orders:order_id -> customer]"))
questions = [
    "Warehouse:orders:[order_id -> lines]",
    "Warehouse:orders:lines:[sku -> description]",
    "Warehouse:[orders -> customer]",
]
print()
for text in questions:
    print(f"implied for the view? {text}:",
          engine.implies(NFD.parse(text)))

# ---------------------------------------------------------------------------
# 4. Carryover: the view is a nest of the flat relation
#    (customer, order_id, lines) on [order_id, lines].  The flat FDs
#    translate mechanically into NFDs over the nested view.
# ---------------------------------------------------------------------------
flat_fds = [FD({"order_id"}, "lines"), FD({"order_id"}, "customer")]
carried = fds_after_nest("Warehouse", flat_fds,
                         ["order_id", "lines"], "orders")
print()
print("flat FDs carried into the nested view:")
for fd, nfd in zip(flat_fds, carried):
    print(f"   {fd}  ~>  {nfd}  - holds on the refreshed view:",
          satisfies_all(instance, [nfd]))
