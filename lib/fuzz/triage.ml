(* Crash triage: bucket divergences by first-divergence site.

   Two failures land in the same bucket when they diverge under the
   same scheme and optimizer setting, at the same kind of site, with
   the same outcome shape — the usual granularity at which one compiler
   bug produces many failing seeds.  The report prints one exemplar
   seed per bucket, cheapest first. *)

let bucket_key (f : Driver.failure) =
  Printf.sprintf "%s%s @ %s" f.scheme (if f.optimize then "+peephole" else "") f.site

type bucket = { key : string; count : int; exemplar : int (* lowest seed *) }

let buckets (failures : Driver.failure list) : bucket list =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (f : Driver.failure) ->
      let key = bucket_key f in
      match Hashtbl.find_opt tbl key with
      | None -> Hashtbl.replace tbl key (1, f.seed)
      | Some (n, ex) -> Hashtbl.replace tbl key (n + 1, min ex f.seed))
    failures;
  Hashtbl.fold (fun key (count, exemplar) acc -> { key; count; exemplar } :: acc) tbl []
  |> List.sort (fun a b ->
         match compare b.count a.count with 0 -> compare a.key b.key | c -> c)

let pp_buckets fmt bs =
  List.iter
    (fun b ->
      Format.fprintf fmt "%4d  %-40s  e.g. seed %d@," b.count b.key b.exemplar)
    bs
