type violation_kind = On_graph | Off_graph_to_call_site | Off_graph_arbitrary

let pp_violation_kind fmt = function
  | On_graph -> Format.pp_print_string fmt "on-graph"
  | Off_graph_to_call_site -> Format.pp_print_string fmt "off-graph to call-site"
  | Off_graph_arbitrary -> Format.pp_print_string fmt "off-graph to arbitrary address"

let pow2 b = 2.0 ** float_of_int b

let table1_success_probability ~masked kind ~bits =
  match kind, masked with
  | On_graph, false -> 1.0
  | On_graph, true -> 1.0 /. pow2 bits
  | Off_graph_to_call_site, _ -> 1.0 /. pow2 bits
  | Off_graph_arbitrary, _ -> 1.0 /. pow2 (2 * bits)

let collision_harvest_mean ~bits = sqrt (Float.pi *. pow2 bits /. 2.0)

let guesses_divide_and_conquer ~bits = 2.0 *. ((pow2 bits +. 1.0) /. 2.0)
let guesses_reseeded ~bits = 2.0 *. pow2 bits
let guesses_independent ~bits = pow2 (2 * bits)
