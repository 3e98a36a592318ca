(** Lexer for the textual µJimple format.

    Identifiers include dots (fully-qualified class names are single
    tokens) and the pseudo-names [<init>]/[<clinit>] are lexed as one
    identifier. *)

type token =
  | IDENT of string
  | INT of int
  | STRING of string
  | LBRACE
  | RBRACE
  | LPAREN
  | RPAREN
  | LBRACKET
  | RBRACKET
  | SEMI
  | COLON
  | COMMA
  | HASH
  | AT
  | DOT
  | ASSIGN  (** [=] *)
  | IDENTITY  (** [:=] *)
  | OP of string  (** comparison or arithmetic operator *)
  | EOF

exception Lex_error of int * string
(** 1-based line number and description *)

type t
(** A lexer over one source string. *)

val create : string -> t

val next : t -> token
(** [next lx] skips whitespace and comments, then reads one token;
    [EOF] at the end of input (and on every later call).
    @raise Lex_error on malformed input *)

val line : t -> int
(** [line lx] is the 1-based line of the current position: after
    {!next}, the line on which the token just read ends. *)

val string_of_token : token -> string
(** Human-readable rendering for error messages. *)
