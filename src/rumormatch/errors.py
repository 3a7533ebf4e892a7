"""Exception types shared across the package.

Every error carries a short machine-readable ``code`` so the CLI can map
failures to exit codes and one-line diagnostics.
"""


class RumorMatchError(Exception):
    """Base class for all package errors."""

    code = "INTERNAL"


class CorpusError(RumorMatchError):
    """Raised for any ingestion / validation failure."""

    code = "CORPUS"


class MalformedLineError(CorpusError):
    code = "MALFORMED_LINE"

    def __init__(self, path, line_no, reason):
        self.path = path
        self.line_no = line_no
        self.reason = reason
        super().__init__(f"{path}:{line_no}: malformed line: {reason}")


class DuplicateIdError(CorpusError):
    code = "DUPLICATE_ID"

    def __init__(self, path, line_no, dup_id):
        self.dup_id = dup_id
        super().__init__(f"{path}:{line_no}: duplicate id {dup_id!r}")


class EmptyBodyError(CorpusError):
    code = "EMPTY_BODY"

    def __init__(self, path, line_no, article_id):
        self.article_id = article_id
        super().__init__(f"{path}:{line_no}: article {article_id!r} has empty body")


class DanglingTweetRefError(CorpusError):
    code = "DANGLING_TWEET_REF"

    def __init__(self, tweet_id):
        self.tweet_id = tweet_id
        super().__init__(f"label references unknown tweet {tweet_id!r}")


class DanglingArticleRefError(CorpusError):
    code = "DANGLING_ARTICLE_REF"

    def __init__(self, article_id):
        self.article_id = article_id
        super().__init__(f"label references unknown article {article_id!r}")


class RumorWithoutArticleError(CorpusError):
    code = "RUMOR_WITHOUT_ARTICLE"

    def __init__(self, tweet_id, msg=None):
        self.tweet_id = tweet_id
        super().__init__(msg or f"rumor label for tweet {tweet_id!r} lacks an article_id")


class EmptyCorpusError(RumorMatchError):
    code = "EMPTY_CORPUS"


class AllEmptyAfterTokenizeError(RumorMatchError):
    code = "ALL_EMPTY_AFTER_TOKENIZE"


class InputFormatError(RumorMatchError, ValueError):
    """An input file that its reader cannot use (index, vector file)."""

    code = "INPUT_FORMAT"


class IndexFormatError(InputFormatError):
    code = "INDEX_FORMAT"


class DimMismatchError(InputFormatError):
    code = "DIM_MISMATCH"


class EmptyScoresError(RumorMatchError):
    code = "EMPTY_SCORES"


class DegenerateLabelsError(RumorMatchError):
    code = "DEGENERATE_LABELS"


class NoRumorLabelsError(RumorMatchError):
    code = "NO_RUMOR_LABELS"


class UnreachablePrecisionError(RumorMatchError):
    code = "UNREACHABLE_PRECISION"


class EmptyDenominatorError(RumorMatchError):
    code = "EMPTY_DENOMINATOR"


class NoRumorsError(RumorMatchError):
    code = "NO_RUMORS"


class ZeroArticlesForSubjectError(RumorMatchError):
    code = "ZERO_ARTICLES_FOR_SUBJECT"

    def __init__(self, subject):
        self.subject = subject
        super().__init__(f"no reference articles tagged with subject {subject}")
