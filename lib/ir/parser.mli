(** Parser for the textual µJimple format (see the grammar sketch in
    the implementation header and the shipped example under
    [examples/apps/leakage_app]).

    Instance field/method references are written [base.Class#member]
    where [base] must be a local already in scope; static field loads
    are written [static Class#field]; ground-truth tags are [@"name"]
    suffixes before the semicolon. *)

exception Parse_error of int * string
(** 1-based line number and description *)

val parse_string : string -> Jclass.t list
(** [parse_string src] parses a compilation unit: a sequence of class
    and interface declarations.
    @raise Parse_error on malformed input, lexical errors included
    (with the lexer's line and message) *)
