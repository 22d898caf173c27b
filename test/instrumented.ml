(* Shared by the campaign suites' 1-vs-4-worker cases: [run f] runs [f]
   fully instrumented — obs enabled and the campaign progress hooks
   attached — then leaves obs disabled and empty. Observability is a
   write-only side channel, so the result must equal an untraced run's. *)

module Obs = Pacstack_obs.Obs

let run f =
  Obs.reset ();
  Obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    (fun () -> f (Obs.Campaign_hooks.progress_sink ()))
