package genlib

// Lib2Text is the embedded library's text, for the external tests.
const Lib2Text = lib2Text
