"""Exception types shared across the package.

The CLI maps each failure to an exit code by its class and prints its
message as a one-line diagnostic. A faulty line of any line-oriented input
(tweets, articles, labels, matches, a vector file), and a line of a
stopword, lexicon or config file that is not UTF-8 or a lexicon pattern
that does not compile, is a MalformedLineError naming ``path:line``; the
other classes name faults no one line holds.
"""


class RumorMatchError(Exception):
    """Base class for all package errors."""


class CorpusError(RumorMatchError):
    """Raised for any ingestion / validation failure."""


class MalformedLineError(CorpusError):
    def __init__(self, path, line_no, reason):
        self.path = path
        self.line_no = line_no
        self.reason = reason
        super().__init__(f"{path}:{line_no}: malformed line: {reason}")


class DuplicateIdError(CorpusError):
    def __init__(self, path, line_no, dup_id):
        self.dup_id = dup_id
        super().__init__(f"{path}:{line_no}: duplicate id {dup_id!r}")


class DanglingTweetRefError(CorpusError):
    def __init__(self, tweet_id):
        self.tweet_id = tweet_id
        super().__init__(f"label references unknown tweet {tweet_id!r}")


class EmptyCorpusError(RumorMatchError):
    pass


class AllEmptyAfterTokenizeError(RumorMatchError):
    pass


class InputFormatError(RumorMatchError, ValueError):
    """An input its reader cannot use: an index file, or vectors of another shape."""


class IndexFormatError(InputFormatError):
    pass


class IndexMismatchError(InputFormatError):
    """A saved index built under another tokenizer or from other articles."""


class DimMismatchError(InputFormatError):
    pass


class EmptyScoresError(RumorMatchError):
    pass


class DegenerateLabelsError(RumorMatchError):
    pass


class NoRumorLabelsError(RumorMatchError):
    pass


class EmptyDenominatorError(RumorMatchError):
    pass


class NoRumorsError(RumorMatchError):
    pass


class ZeroArticlesForSubjectError(RumorMatchError):
    def __init__(self, subject):
        self.subject = subject
        super().__init__(f"no reference articles tagged with subject {subject}")
