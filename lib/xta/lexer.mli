(** Tokeniser for the [.xta]-style textual model format (see {!Xta}). *)

type token =
  | IDENT of string
  | INT of int
  | KW of string        (** keyword: network, clock, int, chan, ... *)
  | LBRACE | RBRACE
  | LBRACKET | RBRACKET
  | LPAREN | RPAREN
  | SEMI | COMMA
  | ARROW               (** -> *)
  | BANG | QUEST        (** ! ? *)
  | ASSIGN              (** := *)
  | EQ                  (** = *)
  | OP of string        (** comparison and boolean operators *)
  | PLUS | MINUS | STAR
  | EOF

exception Lex_error of int * string
(** line number and message *)

(** Tokenise a whole input.  [//] line comments are skipped.
    @raise Lex_error on an unexpected character or an integer literal
    that does not fit an [int]. *)
val tokenize : string -> (token * int) list
(** Each token is paired with its line number, for error reporting. *)

val pp_token : Format.formatter -> token -> unit
