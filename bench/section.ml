(* What the bench suite's sections share. A section runs its experiments,
   prints its progress, and returns its report plus its named gates; the
   suite writes the reports and fails on any false gate. *)

type t = Obs.Json.t * (string * bool) list

let seed = 42

let verdict_name = function
  | Harness.Run.Pass -> "pass"
  | Harness.Run.Fail _ -> "fail"
  | Harness.Run.Unknown _ -> "unknown"

let verdict_detail = function
  | Harness.Run.Pass -> ""
  | Harness.Run.Fail m | Harness.Run.Unknown m -> m
