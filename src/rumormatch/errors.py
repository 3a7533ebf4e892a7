"""Exception types shared across the package.

The CLI maps each failure to an exit code by its class and prints its
message as a one-line diagnostic.
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


class EmptyBodyError(CorpusError):
    def __init__(self, path, line_no, article_id):
        self.article_id = article_id
        super().__init__(f"{path}:{line_no}: article {article_id!r} has empty body")


class DanglingTweetRefError(CorpusError):
    def __init__(self, tweet_id):
        self.tweet_id = tweet_id
        super().__init__(f"label references unknown tweet {tweet_id!r}")


class DanglingArticleRefError(CorpusError):
    def __init__(self, article_id):
        self.article_id = article_id
        super().__init__(f"label references unknown article {article_id!r}")


class RumorWithoutArticleError(CorpusError):
    def __init__(self, tweet_id, msg=None):
        self.tweet_id = tweet_id
        super().__init__(msg or f"rumor label for tweet {tweet_id!r} lacks an article_id")


class EmptyCorpusError(RumorMatchError):
    pass


class AllEmptyAfterTokenizeError(RumorMatchError):
    pass


class InputFormatError(RumorMatchError, ValueError):
    """An input file that its reader cannot use (index, vector file)."""


class IndexFormatError(InputFormatError):
    pass


class IndexMismatchError(InputFormatError):
    """A saved index built under another tokenizer or from other articles."""


class DimMismatchError(InputFormatError):
    pass


class VectorFileError(InputFormatError):
    """A vector file line that is not '<count> <dim>' (the header) or not
    '<term> <dim numbers>'."""

    def __init__(self, path, line_no, reason):
        self.path = path
        self.line_no = line_no
        super().__init__(f"{path}:{line_no}: {reason}")


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
