(* Smoke tests for the report layer: regenerate the stochastic
   tables/sections at tiny trial scales (the numbers are noisy at these
   scales; only the machinery and the shape of the output are under
   test), and golden-check the CSV export headers and row shape. *)

module Report = Pacstack_report.Report
module Export = Pacstack_report.Export
module Plans = Pacstack_report.Plans

let render section =
  let buf = Buffer.create 4096 in
  let fmt = Format.formatter_of_buffer buf in
  section fmt;
  Format.pp_print_flush fmt ();
  Buffer.contents buf

let contains haystack needle =
  let lh = String.length haystack and ln = String.length needle in
  let rec scan i = i + ln <= lh && (String.sub haystack i ln = needle || scan (i + 1)) in
  scan 0

let check_contains out needles =
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "output mentions %S" needle) true
        (contains out needle))
    needles

let test_table1_smoke () =
  let out = render (Report.table1 ~seed:5L ~scale:0.001) in
  check_contains out
    [ "Table 1"; "violation"; "masking"; "paper(theory)"; "measured" ];
  (* six data rows: one per Table 1 cell *)
  Alcotest.(check int) "6 cells printed"
    (List.length Pacstack_report.Plans.table1_cells)
    (List.length
       (List.filter
          (fun line -> contains line "e-" || contains line "e+")
          (String.split_on_char '\n' out)))

let test_table1_smoke_workers () =
  (* the tiny-scale rerun is identical on a 4-domain pool *)
  Alcotest.(check string) "workers-independent"
    (render (Report.table1 ~seed:5L ~scale:0.001))
    (render (Report.table1 ~seed:5L ~scale:0.001 ~workers:4))

let test_birthday_smoke () =
  let out = render (Report.birthday ~seed:5L ~scale:0.01) in
  check_contains out
    [
      "tokens harvested until PAC collision";
      "mask distinguisher advantage";
      "Theorem 1";
    ]

let test_bruteforce_smoke () =
  let out = render (Report.bruteforce ~seed:5L ~scale:0.02) in
  check_contains out [ "Brute-force guessing"; "strategy"; "measured"; "expected" ]

(* Section titles print through a plain "%s", so a "%%" in one reaches
   the output verbatim. The text is a function of the rows, so a
   hand-built one-benchmark value covers every line without measuring
   the grid. *)
let test_figure5_header () =
  let scheme = Pacstack_harden.Scheme.pacstack in
  let o =
    {
      Report.figure5 = [ ("mcf", 1.5, [ (scheme, 3.25) ]) ];
      table2 = [ (scheme, 2.5, 3.0) ];
      cpp = [ (scheme, 2.25) ];
    }
  in
  let out = render (fun fmt -> Report.pp_overheads fmt o) in
  check_contains out
    [
      "=== Figure 5: per-benchmark overhead w.r.t. baseline (%, SPECrate-like) ===";
      "=== Table 2: geometric mean of overheads ===";
      "pacstack                          2.50%          3.00%          2.75%/3.28%";
      "  pacstack         2.25%  (paper 2.0%)";
    ];
  Alcotest.(check bool) "no doubled percent sign" false (contains out "%%")

(* The SP-modifier section counts calls and their SP values with a
   [run_until] observer; it prints exactly these lines. *)
let test_sp_collisions () =
  let lines =
    [
      "=== SP-modifier reuse (paper 2.2.1: why the SP is a weak modifier) ===";
      "perlbench       2438 calls use only     2 distinct SP values (99.9% of signatures \
       reuse a modifier)";
      "gcc             1896 calls use only    40 distinct SP values (97.9% of signatures \
       reuse a modifier)";
      "mcf              797 calls use only     2 distinct SP values (99.7% of signatures \
       reuse a modifier)";
      "x264             660 calls use only     2 distinct SP values (99.7% of signatures \
       reuse a modifier)";
    ]
  in
  Alcotest.(check string) "SP-modifier section"
    (String.concat "\n" ("" :: lines) ^ "\n")
    (render Report.sp_collisions)

(* --- CSV export: golden headers, row shape and agreement with the report -- *)

let with_temp_dir f =
  (* relative to the test's working directory, under dune's sandbox *)
  let dir = "export_test_csv" in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

let test_export_table1_golden () =
  with_temp_dir (fun dir ->
      let path = Export.table1 ~seed:5L ~scale:0.001 ~dir () in
      Alcotest.(check string) "file name" "table1.csv" (Filename.basename path);
      let lines =
        In_channel.with_open_text path In_channel.input_all
        |> String.split_on_char '\n'
        |> List.filter (fun l -> l <> "")
      in
      match lines with
      | [] -> Alcotest.fail "empty csv"
      | header :: rows ->
        Alcotest.(check string) "golden header" "violation,masking,bits,theory,measured"
          header;
        Alcotest.(check int) "one row per Table 1 cell" 6 (List.length rows);
        (* the measured column is the campaign estimate that [pacstack
           table1] prints, computed independently from the plan here *)
        let estimates =
          Plans.table1_estimates
            (Pacstack_campaign.Campaign.run (Plans.table1_plan ~scale:0.001 ~seed:5L ()))
        in
        List.iteri
          (fun i row ->
            match String.split_on_char ',' row with
            | [ _; _; _; _; measured ] ->
              Alcotest.(check string)
                (Printf.sprintf "row %d measured = campaign estimate" i)
                (Printf.sprintf "%.3e" estimates.(i).Pacstack_acs.Games.rate)
                measured
            | fields -> Alcotest.failf "row %d: %d fields, expected 5" i (List.length fields))
          rows)

let () =
  Alcotest.run "report"
    [
      ( "sections",
        [
          Alcotest.test_case "table1 tiny-scale" `Quick test_table1_smoke;
          Alcotest.test_case "table1 worker-independent" `Quick test_table1_smoke_workers;
          Alcotest.test_case "birthday tiny-scale" `Quick test_birthday_smoke;
          Alcotest.test_case "bruteforce tiny-scale" `Quick test_bruteforce_smoke;
          Alcotest.test_case "figure5 header" `Quick test_figure5_header;
          Alcotest.test_case "SP-modifier reuse counts" `Quick test_sp_collisions;
        ] );
      ("export", [ Alcotest.test_case "table1 csv golden" `Quick test_export_table1_golden ]);
    ]
