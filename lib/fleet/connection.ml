module Scheme = Pacstack_harden.Scheme
module Kernel = Pacstack_workloads.Server.Kernel

type cost = { cycles : float; mem_ops : float }

module Costs = struct
  type t = {
    scheme : Scheme.t;
    table : (int, cost) Hashtbl.t;
    baseline : (int, cost) Hashtbl.t;  (* unprotected, for extra_mem *)
  }

  let create ~scheme = { scheme; table = Hashtbl.create 16; baseline = Hashtbl.create 16 }

  let measure tbl ~scheme ~records =
    match Hashtbl.find_opt tbl records with
    | Some c -> c
    | None ->
      let cycles, mem_ops = Kernel.measure_request ~scheme ~records in
      let c = { cycles; mem_ops } in
      Hashtbl.add tbl records c;
      c

  let request t ~records = measure t.table ~scheme:t.scheme ~records

  let extra_mem t ~records =
    if Scheme.equal t.scheme Scheme.unprotected then 0.0
    else
      let this = request t ~records in
      let base = measure t.baseline ~scheme:Scheme.unprotected ~records in
      Float.max 0.0 (this.mem_ops -. base.mem_ops)

  let distinct t = Hashtbl.length t.table
end

type t = { gen : Arrival.gen }

let start arrival ~seed ~conn = { gen = Arrival.start arrival ~seed ~conn }
